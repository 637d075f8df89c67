package mt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Chaos sweeps for the pluggable lock policies: each seed runs every
// policy through a contended workload with mixed priorities, in-
// section deschedules, and timed acquisitions, under the full chaos
// menu (forced preemptions, spurious wakeups, injected EINTR). What
// the sweep pins down, per policy:
//
//   - Mutual exclusion and no lost updates (counter + holders gauge).
//   - Priority inheritance across hand-off: a high-priority closer
//     thread acquires the same lock while low-priority holders
//     deschedule inside their critical sections; the run completing
//     under the proc watchdog (waitProc's deadline) means no
//     unboosted holder ever stalled the chain.
//   - Timed waiters dequeue cleanly: expired TimedEnter calls under
//     chaos must neither receive a stale grant nor strand the
//     hand-off chain (both would surface as a holders-gauge violation
//     or a hang).
//   - The robust owner-death protocol keeps working in processes that
//     default to each policy: a process dies holding a shared mutex
//     and an heir process observes ErrOwnerDead (shared mutexes use
//     the kernel word protocol regardless of policy, but they share
//     the Mutex type and must coexist with every process default).
func TestChaosLockPolicies(t *testing.T) {
	sweep(t, func(t *testing.T, seed uint64) {
		for _, pol := range LockPolicies() {
			runLockPolicyChaos(t, seed, pol)
			if t.Failed() {
				return
			}
		}
	})
}

func runLockPolicyChaos(t *testing.T, seed uint64, pol LockPolicy) {
	const nThreads, iters = 4, 25
	sys := chaosSystem(t, chaosOpts(2, seed))
	var mu Mutex
	mu.InitPolicy(pol)
	var holders, violations, timeouts atomic.Int32
	counter := 0
	p := spawn(t, sys, "chaos-lockpol", ProcConfig{LockPolicy: pol}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		ids := make([]ThreadID, 0, nThreads)
		for i := 0; i < nThreads; i++ {
			i := i
			c, err := rt.Create(func(ct *Thread, _ any) {
				for j := 0; j < iters; j++ {
					// Every fourth round contends through the timed
					// path; an expired waiter must vanish from the
					// queue without disturbing the grant chain.
					if j%4 == 3 {
						if err := mu.TimedEnter(ct, time.Millisecond); err != nil {
							if err != ErrTimedOut {
								t.Errorf("TimedEnter: %v", err)
							}
							timeouts.Add(1)
							continue
						}
					} else {
						mu.Enter(ct)
					}
					if holders.Add(1) != 1 {
						violations.Add(1)
					}
					counter++
					ct.Checkpoint()
					if j%5 == 0 {
						// Deschedule while holding: the hand-off and
						// inheritance paths must cope with an off-CPU
						// owner.
						ct.Yield()
					}
					holders.Add(-1)
					mu.Exit(ct)
				}
			}, nil, CreateOpts{Flags: ThreadWait, Priority: 1 + i%2})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, c.ID())
		}
		// The closer outranks every worker: with inheritance working
		// across hand-offs it cannot be starved by the descheduled
		// low-priority holders, so the whole process finishes inside
		// waitProc's deadline.
		closer, err := rt.Create(func(ct *Thread, _ any) {
			for j := 0; j < iters; j++ {
				mu.Enter(ct)
				if holders.Add(1) != 1 {
					violations.Add(1)
				}
				counter++
				holders.Add(-1)
				mu.Exit(ct)
				ct.Yield()
			}
		}, nil, CreateOpts{Flags: ThreadWait, Priority: 8})
		if err != nil {
			t.Error(err)
			return
		}
		for _, id := range append(ids, closer.ID()) {
			tt.Wait(id)
		}
	})
	waitProc(t, p)
	if v := violations.Load(); v != 0 {
		t.Fatalf("policy %v: mutual exclusion violated %d times", pol, v)
	}
	want := nThreads*iters + iters - int(timeouts.Load())
	if counter != want {
		t.Fatalf("policy %v: counter = %d, want %d (%d timed out)", pol, counter, want, timeouts.Load())
	}

	// Robust owner death under this process-default policy: a process
	// dies holding a file-backed mutex; an heir sees ErrOwnerDead.
	path := fmt.Sprintf("/tmp/chaos-lockpol-%d-%v", seed, pol)
	p1 := spawn(t, sys, "dying", ProcConfig{LockPolicy: pol}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, path, OCreate|ORdWr)
		va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		mu, err := p.SharedMutexAt(tt, va)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Enter(tt) // die holding it
	})
	waitProc(t, p1)
	p2 := spawn(t, sys, "heir", ProcConfig{LockPolicy: pol}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, path, ORdWr)
		va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		mu, err := p.SharedMutexAt(tt, va)
		if err != nil {
			t.Error(err)
			return
		}
		if err := mu.EnterErr(tt); err != ErrOwnerDead {
			t.Errorf("policy %v: EnterErr = %v, want ErrOwnerDead", pol, err)
			return
		}
		mu.MakeConsistent(tt)
		mu.Exit(tt)
	})
	waitProc(t, p2)
}
