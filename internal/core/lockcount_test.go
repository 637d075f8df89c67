package core_test

import (
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/tsync"
)

// TestUncontendedLockNoSchedLock: acquiring and releasing a
// process-local lock that nobody waits for takes Runtime.mu 0 times
// per pair (2 before: every Enter linked the turnstile into the
// owner's held list and every Exit unlinked it). The turnstile is
// linked only when a thread blocks. Shown by making the calls while
// this goroutine holds the thread's Runtime.mu. Run with a timeout:
// the version that took it deadlocks here.
func TestUncontendedLockNoSchedLock(t *testing.T) {
	cases := map[string]func(self *core.Thread) bool{
		"mutex/default": func(self *core.Thread) bool {
			var mu tsync.Mutex
			mu.Enter(self)
			mu.Exit(self)
			return true
		},
		"mutex/tryenter": func(self *core.Thread) bool {
			var mu tsync.Mutex
			ok := mu.TryEnter(self)
			mu.Exit(self)
			return ok
		},
		"rwlock/writer": func(self *core.Thread) bool {
			var rw tsync.RWLock
			rw.Enter(self, tsync.RWWriter)
			rw.Exit(self)
			return true
		},
		"rwlock/tryupgrade": func(self *core.Thread) bool {
			var rw tsync.RWLock
			rw.Enter(self, tsync.RWReader)
			ok := rw.TryUpgrade(self)
			rw.Exit(self)
			return ok
		},
		"rwlock/downgrade": func(self *core.Thread) bool {
			var rw tsync.RWLock
			rw.Enter(self, tsync.RWWriter)
			rw.Downgrade(self)
			rw.Exit(self)
			return true
		},
	}
	for _, p := range tsync.Policies() {
		cases["mutex/"+p.String()] = func(self *core.Thread) bool {
			var mu tsync.Mutex
			mu.InitPolicy(p)
			mu.Enter(self)
			mu.Exit(self)
			return true
		}
	}
	for name, pair := range cases {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(sim.Config{NCPU: 1, KernelSwitchCost: -1})
			m := core.NewRuntime(k, k.NewProcess("test", nil), core.Config{})
			ready, locked, done := make(chan struct{}), make(chan struct{}), make(chan bool)
			if _, err := m.Start(func(self *core.Thread, _ any) {
				close(ready)
				<-locked
				ok := true
				for i := 0; i < 3; i++ {
					ok = pair(self) && ok
				}
				done <- ok
			}, nil); err != nil {
				t.Fatal(err)
			}
			<-ready
			m.SchedLock().Lock()
			close(locked)
			select {
			case ok := <-done:
				if !ok {
					t.Error("the uncontended acquisition failed")
				}
				m.SchedLock().Unlock()
			case <-time.After(5 * time.Second):
				t.Error("an uncontended pair waits for Runtime.mu")
				m.SchedLock().Unlock()
				<-done
			}
			select {
			case <-m.Exited():
			case <-time.After(10 * time.Second):
				t.Fatal("timeout waiting for process exit")
			}
		})
	}
}
