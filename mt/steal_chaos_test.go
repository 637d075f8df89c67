package mt

// Steal/pset chaos sweeps: the per-CPU dispatcher's two load-bearing
// invariants under perturbed schedules — the kernel never idles a CPU
// while stealable work is queued in its processor set, and a
// pset-bound thread's LWP never runs on a CPU outside its set. Like
// the other sweeps, a failing seed replays exactly:
//
//	go test ./mt -run TestChaosSteal -chaos.seed=N

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestChaosStealWorkConservation: yielders plus park/unpark ping-pong
// pairs keep ready-queue traffic flowing across four CPUs split into
// two processor sets, while a monitor thread polls the kernel's
// work-conservation invariant the whole time. Every kernel mutation
// ends in scheduleLocked under the same lock hold, so the invariant
// must hold at every observation point, not just at quiescence.
func TestChaosStealWorkConservation(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const nYield, nPairs, iters = 4, 2, 30
		sys := chaosSystem(t, chaosOpts(4, seed))
		// A second pset splits the machine so the invariant is
		// checked per set, with a bound thread keeping it non-empty.
		ps := sys.PsetCreate()
		if err := sys.PsetAssign(ps, 3); err != nil {
			t.Fatal(err)
		}
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
			// A bound thread confined to the one-CPU set keeps the
			// second pset's invariant from being vacuously true.
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
			if err := sys.PsetBind(bound, ps); err != nil {
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

// TestChaosStealPsetConfinement: bound threads confined to a two-CPU
// processor set check, on every iteration, that their LWP is running
// inside the set — no perturbed placement, steal, or balance decision
// may ever move them out — while unbound yielders flood the default
// set with stealable work to tempt it.
func TestChaosStealPsetConfinement(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		const nBound, nFree, iters = 2, 4, 30
		sys := chaosSystem(t, chaosOpts(4, seed))
		ps := sys.PsetCreate()
		for _, cpu := range []int{2, 3} {
			if err := sys.PsetAssign(ps, cpu); err != nil {
				t.Fatal(err)
			}
		}
		inSet := func(cpu int) bool { return cpu == 2 || cpu == 3 }
		var escapes atomic.Int32
		p := spawn(t, sys, "chaos-pset", ProcConfig{}, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			ids := make([]ThreadID, 0, nBound+nFree)
			for i := 0; i < nBound; i++ {
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
						if cpu := ct.BoundLWP().CurCPU(); cpu >= 0 && !inSet(cpu) {
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
				if err := sys.PsetBind(c, ps); err != nil {
					t.Error(err)
					return
				}
				bound.Store(true)
				ids = append(ids, c.ID())
			}
			// Unbound load in the default set: stealable work the
			// pset CPUs must never pull, and vice versa.
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
			t.Fatalf("bound threads ran outside their pset %d times", e)
		}
	})
}

// TestStealUnderFullOccupancy: with a low-priority bound spinner on
// every CPU, each wakeup of a ping-pong pair's LWP finds no free CPU
// and queues, outranking the spinners — so it reaches a CPU either by
// preempting one or by a CPU that frees up stealing it from a
// sibling's queue. Both are cross-CPU dispatches; the kernel's
// counters must show steals, and the rings must pair at least one
// EvWakeup with the EvMigrate of the same LWP's next dispatch. No
// chaos: occupancy alone has to force it.
func TestStealUnderFullOccupancy(t *testing.T) {
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
			// spinners, so wakeups preempt and steals favor them.
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

	var dispatches, steals uint64
	for _, cs := range sys.SchedStats() {
		dispatches += cs.Dispatches
		steals += cs.Steals
	}
	if dispatches == 0 {
		t.Fatal("no dispatches recorded")
	}
	if steals == 0 {
		t.Fatal("no steals: spinner occupancy no longer forces queued wakeups")
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
