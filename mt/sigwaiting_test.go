package mt

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestSigwaitingGrowsForLateRunnable: a thread that its own timeout
// makes runnable while every pool LWP sleeps indefinitely gets an LWP.
// The process starts with one pool LWP. B waits 50 ms in a timed wait
// and then writes pipes 1 and 2; C blocks reading pipe 2; the main
// thread blocks reading pipe 1. SIGWAITING growth runs B and C, and the
// episode in which the last LWP went to sleep finds nothing to run: B is
// not runnable until its timeout. The wake that queues B must grow the
// pool itself, or nothing ever writes the pipes. When only the kernel's
// post checked the run queue, each variant hung three runs in three.
func TestSigwaitingGrowsForLateRunnable(t *testing.T) {
	const d = 50 * time.Millisecond
	waits := []struct {
		name string
		wait func(t *testing.T, bt *Thread, held *Mutex)
	}{
		{"Cond.TimedWait", func(t *testing.T, bt *Thread, _ *Mutex) {
			var mu Mutex
			var cv Cond
			mu.Enter(bt)
			if cv.TimedWait(bt, &mu, d) {
				t.Error("TimedWait reported a signal nobody sent")
			}
			mu.Exit(bt)
		}},
		{"Mutex.TimedEnter", func(t *testing.T, bt *Thread, held *Mutex) {
			if err := held.TimedEnter(bt, d); err != ErrTimedOut {
				t.Errorf("TimedEnter = %v, want ErrTimedOut", err)
			}
		}},
		{"Sema.TimedP", func(t *testing.T, bt *Thread, _ *Mutex) {
			var s Sema
			if err := s.TimedP(bt, d); err != ErrTimedOut {
				t.Errorf("TimedP = %v, want ErrTimedOut", err)
			}
		}},
	}
	for _, procs := range []int{1, 2} {
		for _, w := range waits {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", w.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sys := NewSystem(Options{NCPU: 2})
				p := spawn(t, sys, "late", ProcConfig{}, func(p *Proc, tt *Thread) {
					rt := tt.Runtime()
					if n := rt.PoolSize(); n != 1 {
						t.Errorf("PoolSize at start = %d, want 1", n)
					}
					r1, w1, _ := p.Pipe(tt)
					r2, w2, _ := p.Pipe(tt)
					// The main thread holds held across its read, so the
					// TimedEnter variant has something to time out on.
					var held Mutex
					held.Enter(tt)
					b, err := rt.Create(func(bt *Thread, _ any) {
						w.wait(t, bt, &held)
						p.Write(bt, w1, []byte{1})
						p.Write(bt, w2, []byte{2})
					}, nil, CreateOpts{Flags: ThreadWait})
					if err != nil {
						t.Error(err)
						return
					}
					c, err := rt.Create(func(ct *Thread, _ any) {
						p.Read(ct, r2, make([]byte, 1))
					}, nil, CreateOpts{Flags: ThreadWait})
					if err != nil {
						t.Error(err)
						return
					}
					p.Read(tt, r1, make([]byte, 1))
					held.Exit(tt)
					tt.Wait(b.ID())
					tt.Wait(c.ID())
				})
				done := make(chan struct{})
				go func() {
					p.WaitExit()
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("deadlock: the timed-out thread never got an LWP")
				}
			})
		}
	}
}
