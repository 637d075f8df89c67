package mt

// Dispatcher chaos sweeps: the kernel dispatcher's two load-bearing
// invariants under perturbed schedules — no CPU idles while an LWP
// that may run on it is queued, and an LWP hard-bound to a CPU
// (BindCPU) never runs anywhere else, whatever chaos pick reorders
// do. Both sweeps keep the names they had when the kernel had per-CPU
// queues, work stealing and processor sets, so their seeds compare
// across that change. Like the other sweeps, a failing seed replays
// exactly:
//
//	go test ./mt -run TestChaosSteal -chaos.seed=N

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestChaosStealWorkConservation: yielders plus park/unpark ping-pong
// pairs keep ready-queue traffic flowing across four CPUs, with one
// thread's LWP bound to CPU 3, while a monitor thread polls the
// kernel's work-conservation invariant the whole time. Every kernel
// mutation ends in scheduleLocked under the same lock hold, so the
// invariant must hold at every observation point, not just at
// quiescence.
func TestChaosStealWorkConservation(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const nYield, nPairs, iters = 4, 2, 30
		sys := chaosSystem(t, chaosOpts(4, seed))
		var violations atomic.Int32
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !sys.Kern.WorkConserving() {
					violations.Add(1)
				}
			}
		}()
		p := spawn(t, sys, "chaos-conserve", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			ids := make([]ThreadID, 0, nYield+2*nPairs+1)
			// Yielders: plain ready-queue churn across the shards.
			for i := 0; i < nYield; i++ {
				c, err := rt.Create(func(ct *Thread, _ any) {
					for j := 0; j < iters; j++ {
						ct.Checkpoint()
						ct.Yield()
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			// Park/unpark pairs: sleeper parks, pinger unparks it,
			// generating wakeups that land on whatever CPU is idle.
			for i := 0; i < nPairs; i++ {
				var parked atomic.Int32
				sleeper, err := rt.Create(func(ct *Thread, _ any) {
					for j := 0; j < iters; j++ {
						parked.Add(1)
						ct.Park()
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				pinger, err := rt.Create(func(ct *Thread, _ any) {
					woken := 0
					for woken < iters {
						if parked.Load() > int32(woken) && sleeper.State() == ThreadSleeping {
							sleeper.Unpark()
							woken++
						}
						ct.Yield()
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, sleeper.ID(), pinger.ID())
			}
			// A thread bound to CPU 3 queues where only one CPU may
			// take it, so the invariant is checked per CPU, not only
			// for the queue as a whole.
			bound, err := rt.Create(func(ct *Thread, _ any) {
				for j := 0; j < iters; j++ {
					ct.Checkpoint()
					ct.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sys.BindCPU(bound, 3); err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, bound.ID())
			for _, id := range ids {
				tt.Wait(id)
			}
		})
		waitProc(t, p)
		close(stop)
		<-done
		if v := violations.Load(); v != 0 {
			t.Fatalf("work-conservation invariant violated %d times", v)
		}
		if !sys.Kern.WorkConserving() {
			t.Fatal("kernel not work-conserving at quiescence")
		}
	})
}

// TestChaosStealPsetConfinement: threads whose LWPs are bound to CPU 2
// and CPU 3 check, on every iteration, that their LWP is running on
// its CPU — no perturbed pick may move them off it — while unbound
// yielders flood the queue with work the other CPUs may take.
func TestChaosStealPsetConfinement(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const nBound, nFree, iters = 2, 4, 30
		sys := chaosSystem(t, chaosOpts(4, seed))
		var escapes atomic.Int32
		p := spawn(t, sys, "chaos-bind", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			ids := make([]ThreadID, 0, nBound+nFree)
			for i := 0; i < nBound; i++ {
				cpu := 2 + i
				var bound atomic.Bool
				c, err := rt.Create(func(ct *Thread, _ any) {
					// The creator binds us after Create returns; until
					// then we may legitimately run anywhere.
					for !bound.Load() {
						ct.Yield()
					}
					// A rebind of a running LWP takes effect at its next
					// checkpoint; take it before the first check.
					ct.Checkpoint()
					for j := 0; j < iters; j++ {
						// Between checkpoints this goroutine is the
						// LWP's dispatched body, so CurCPU is our CPU.
						if got := ct.BoundLWP().CurCPU(); got >= 0 && got != cpu {
							escapes.Add(1)
						}
						ct.Checkpoint()
						ct.Yield()
					}
				}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
				if err != nil {
					t.Error(err)
					return
				}
				if err := sys.BindCPU(c, cpu); err != nil {
					t.Error(err)
					return
				}
				bound.Store(true)
				ids = append(ids, c.ID())
			}
			// Unbound load: work that a perturbed pick may hand to
			// any CPU, tempting the dispatcher to move a bound LWP
			// too.
			for i := 0; i < nFree; i++ {
				c, err := rt.Create(func(ct *Thread, _ any) {
					for j := 0; j < iters; j++ {
						ct.Checkpoint()
						ct.Yield()
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				tt.Wait(id)
			}
		})
		waitProc(t, p)
		if e := escapes.Load(); e != 0 {
			t.Fatalf("bound threads ran off their CPU %d times", e)
		}
	})
}

// TestWakeUnderFullOccupancy: with a low-priority bound spinner on
// every CPU, each wakeup of a ping-pong pair's LWP finds no free CPU
// and queues, outranking the spinners — so it reaches a CPU by
// preempting one, whichever CPU that is. The rings must pair at least
// one EvWakeup with the EvMigrate of the same LWP's next dispatch: a
// woken LWP that outranks every running one reaches some CPU, not only
// the one it last ran on. No chaos: occupancy alone has to force it.
func TestWakeUnderFullOccupancy(t *testing.T) {
	const ncpu, pairs, spinners, rounds = 4, 4, 4, 200
	sys := NewSystem(Options{NCPU: ncpu, EventRing: 1 << 15})
	var stop atomic.Bool
	var sink atomic.Uint64
	p := spawn(t, sys, "occupied", ProcConfig{DefaultStackSize: 4096}, func(p *Proc, tt *Thread) {
		r := tt.Runtime()
		bound := CreateOpts{Flags: ThreadWait | ThreadBindLWP}
		ids := make([]ThreadID, 0, 2*pairs+spinners)
		create := func(fn func(c *Thread, _ any)) *Thread {
			c, err := r.Create(fn, nil, bound)
			if err != nil {
				panic(err)
			}
			ids = append(ids, c.ID())
			return c
		}
		for i := 0; i < spinners; i++ {
			c := create(func(c *Thread, _ any) {
				for !stop.Load() {
					for j := 0; j < 64; j++ {
						sink.Add(1)
					}
					c.Checkpoint()
					// Yield the *host* CPU so the serialized host
					// schedules blocked ping-pong goroutines promptly;
					// the simulated CPU stays held by this LWP.
					runtime.Gosched()
				}
			})
			// Timeshare floor: every woken ping-pong LWP outranks the
			// spinners, so wakeups preempt them.
			if err := sys.Priocntl(c, ClassTS, 0); err != nil {
				panic(err)
			}
		}
		for i := 0; i < pairs; i++ {
			var s1, s2 Sema
			// The Gosched after each V keeps the waker's LWP on CPU
			// while the woken LWP's goroutine re-enters the kernel
			// run queue — the overlap a parallel host gives for free.
			// Without it a serialized host runs the waker until it
			// blocks, and the wakee always finds its old CPU free.
			create(func(c *Thread, _ any) {
				for j := 0; j < rounds; j++ {
					s2.P(c)
					s1.V(c)
					runtime.Gosched()
				}
			})
			create(func(c *Thread, _ any) {
				for j := 0; j < rounds; j++ {
					s2.V(c)
					runtime.Gosched()
					s1.P(c)
				}
			})
		}
		for _, id := range ids[spinners:] {
			tt.Wait(id)
		}
		stop.Store(true)
		for _, id := range ids[:spinners] {
			tt.Wait(id)
		}
	})
	waitProc(t, p)

	var dispatches uint64
	for _, cs := range sys.SchedStats() {
		dispatches += cs.Dispatches
	}
	if dispatches == 0 {
		t.Fatal("no dispatches recorded")
	}
	// EvMigrate is recorded immediately before the same dispatch's
	// EvDispatch, so a pending wakeup that reaches an EvMigrate first
	// was a cross-CPU wakeup; one that reaches EvDispatch first was
	// dispatched back onto its last CPU and is dropped.
	pending := make(map[int32]bool)
	crossCPU := 0
	for _, rec := range sys.Events().Kinds(EvWakeup, EvMigrate, EvDispatch) { // in Seq order
		switch rec.Kind {
		case EvWakeup:
			pending[rec.LWP] = true
		case EvMigrate:
			if pending[rec.LWP] {
				crossCPU++
			}
			delete(pending, rec.LWP)
		case EvDispatch:
			delete(pending, rec.LWP)
		}
	}
	if crossCPU == 0 {
		t.Fatal("no wakeup paired with a cross-CPU dispatch in the event rings")
	}
}
