package mt

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosSharedBlockFollowsThread: an unbound thread that blocks on
// a process-shared variable sleeps on the LWP carrying it at that
// moment. The Checkpoint at the bottom of each acquisition loop can
// move the thread to another pool LWP (chaos preemption); a loop that
// kept the LWP it started on would then put to sleep an LWP carrying
// some other thread, and the release's wake-up would be eaten.
//
// Six unbound threads on three LWPs take one shared variable, sleep in
// the kernel inside the section (the thread stays attached to its LWP,
// so the fixed pool cannot deadlock), release and yield. A holders
// gauge checks exclusion and the counter must be exact; a stale-LWP
// sleep shows as a hang, which waitProc turns into a failure.
func TestChaosSharedBlockFollowsThread(t *testing.T) {
	kinds := []struct {
		name string
		// bind returns the variable's acquire and release at va; units
		// is the semaphore's initial count, which every lookup that
		// finds the count zero would set again.
		bind func(p *Proc, tt *Thread, va int64, units uint) (enter, exit func(*Thread), err error)
	}{
		{"mutex", func(p *Proc, tt *Thread, va int64, units uint) (func(*Thread), func(*Thread), error) {
			mu, err := p.SharedMutexAt(tt, va)
			return mu.Enter, mu.Exit, err
		}},
		{"sema", func(p *Proc, tt *Thread, va int64, units uint) (func(*Thread), func(*Thread), error) {
			s, err := p.SharedSemaAt(tt, va, units)
			return s.P, s.V, err
		}},
		{"rwlock", func(p *Proc, tt *Thread, va int64, units uint) (func(*Thread), func(*Thread), error) {
			rw, err := p.SharedRWLockAt(tt, va)
			return func(c *Thread) { rw.Enter(c, RWWriter) }, rw.Exit, err
		}},
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			sweep(t, func(t *testing.T, seed uint64) {
				const nThreads, rounds = 6, 60
				sys := chaosSystem(t, chaosOpts(2, seed))
				var holders, violations atomic.Int32
				counter := 0
				p := spawn(t, sys, "shared-block", ProcConfig{}, func(p *Proc, tt *Thread) {
					rt := tt.Runtime()
					rt.SetConcurrency(3)
					va, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, -1, 0)
					if err == nil {
						_, _, err = kind.bind(p, tt, va, 1)
					}
					if err != nil {
						t.Error(err)
						return
					}
					ids := make([]ThreadID, 0, nThreads)
					for i := 0; i < nThreads; i++ {
						c, err := rt.Create(func(c *Thread, _ any) {
							for j := 0; j < rounds; j++ {
								// Looked up every round, as Figure 1's
								// database does: all threads get one handle.
								enter, exit, err := kind.bind(p, c, va, 0)
								if err != nil {
									t.Error(err)
									return
								}
								enter(c)
								if holders.Add(1) != 1 {
									violations.Add(1)
								}
								counter++
								p.Sleep(c, 20*time.Microsecond)
								holders.Add(-1)
								exit(c)
								c.Yield()
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
				if v := violations.Load(); v != 0 {
					t.Errorf("%d exclusion violations", v)
				}
				if counter != nThreads*rounds {
					t.Errorf("counter = %d, want %d", counter, nThreads*rounds)
				}
			})
		})
	}
}
