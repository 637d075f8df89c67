package mt

// Steal/pset chaos sweeps: the per-CPU dispatcher's two load-bearing
// invariants under perturbed schedules — the kernel never idles a CPU
// while stealable work is queued in its processor set, and a
// pset-bound thread's LWP never runs on a CPU outside its set. Like
// the other sweeps, a failing seed replays exactly:
//
//	go test ./mt -run TestChaosSteal -chaos.seed=N

import (
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
