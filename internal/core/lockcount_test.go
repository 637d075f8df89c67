package core_test

import (
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/tsync"
)

// whileHeld boots a one-CPU runtime whose main thread runs prime, then,
// while this goroutine holds the lock hold takes, runs op three times,
// and fails unless every op completes and succeeds. Run with a timeout:
// an op that takes the lock deadlocks here.
func whileHeld(t *testing.T, hold func(m *core.Runtime) (release func()), prime, op func(self *core.Thread) bool, stuck string) {
	t.Helper()
	k := sim.NewKernel(sim.Config{NCPU: 1, KernelSwitchCost: -1})
	m := core.NewRuntime(k, k.NewProcess("test", nil), core.Config{})
	ready, locked, done := make(chan struct{}), make(chan struct{}), make(chan bool)
	if _, err := m.Start(func(self *core.Thread, _ any) {
		if !prime(self) {
			t.Error("priming failed")
		}
		close(ready)
		<-locked
		ok := true
		for i := 0; i < 3; i++ {
			ok = op(self) && ok
		}
		done <- ok
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-ready
	release := hold(m)
	close(locked)
	select {
	case ok := <-done:
		if !ok {
			t.Error("the operation failed")
		}
		release()
	case <-time.After(5 * time.Second):
		t.Error(stuck)
		release()
		<-done
	}
	select {
	case <-m.Exited():
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for process exit")
	}
}

func holdSchedLock(m *core.Runtime) func() {
	m.SchedLock().Lock()
	return m.SchedLock().Unlock
}

func holdShards(*core.Runtime) func() {
	core.LockSleepqShards()
	return core.UnlockSleepqShards
}

func nothing(*core.Thread) bool { return true }

// TestUncontendedLockNoSchedLock: acquiring and releasing a
// process-local lock that nobody waits for takes Runtime.mu 0 times
// per pair (2 before: every Enter linked the turnstile into the
// owner's held list and every Exit unlinked it). The turnstile is
// linked only when a thread blocks. Shown by making the calls while
// this goroutine holds the thread's Runtime.mu.
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
			whileHeld(t, holdSchedLock, nothing, pair, "an uncontended pair waits for Runtime.mu")
		})
	}
}

// blockOnce makes a helper thread wait on a primitive once: the helper
// runs wait, and once it is parked on a kind object, wake lets it
// through. The primitive's sleep queue is allocated and empty after.
func blockOnce(self *core.Thread, wait func(c *core.Thread), kind string, wake func()) bool {
	c, err := self.Runtime().Create(func(c *core.Thread, _ any) { wait(c) },
		nil, core.CreateOpts{Flags: core.ThreadWait})
	if err != nil {
		return false
	}
	for c.State() != core.ThreadSleeping || c.BlockedOn() == nil || c.BlockedOn().Kind != kind {
		self.Yield()
	}
	wake()
	_, err = self.Wait(c.ID())
	return err == nil
}

// TestEmptyQueueNoShardLock: a local primitive learns that its sleep
// queue is empty from the queue's count, read under its word lock, so
// these take 0 sleep-queue shard sections: an uncontended mutex pair
// under every policy (2 before: the count in Enter, the dequeue in
// Exit), a Sema.V or Cond.Signal or Broadcast nobody waits for (1
// before), and rwlock writer and reader pairs (1 per Exit before). Each
// queue was allocated by an earlier waiter, so the calls reach it.
// Shown by making the calls while this goroutine holds every shard
// lock.
func TestEmptyQueueNoShardLock(t *testing.T) {
	type prim struct{ prime, op func(self *core.Thread) bool }
	mutex := func(p tsync.Policy) prim {
		var mu tsync.Mutex
		mu.InitPolicy(p)
		return prim{
			prime: func(self *core.Thread) bool {
				mu.Enter(self)
				return blockOnce(self, func(c *core.Thread) { mu.Enter(c); mu.Exit(c) }, "mutex", func() { mu.Exit(self) })
			},
			op: func(self *core.Thread) bool { mu.Enter(self); mu.Exit(self); return true },
		}
	}
	var sem tsync.Sema
	var cmu tsync.Mutex
	var cv tsync.Cond
	var rw tsync.RWLock
	cases := map[string]prim{
		"sema/V": {
			prime: func(self *core.Thread) bool { return blockOnce(self, sem.P, "sema", func() { sem.V(self) }) },
			op:    func(self *core.Thread) bool { sem.V(self); return true },
		},
		"cond/Signal+Broadcast": {
			prime: func(self *core.Thread) bool {
				return blockOnce(self, func(c *core.Thread) { cmu.Enter(c); cv.Wait(c, &cmu); cmu.Exit(c) },
					"cond", func() { cv.Signal(self) })
			},
			op: func(self *core.Thread) bool { cv.Signal(self); cv.Broadcast(self); return true },
		},
		"rwlock/writer+reader": {
			prime: func(self *core.Thread) bool {
				ok := true
				for _, typ := range []tsync.RWType{tsync.RWWriter, tsync.RWReader} {
					rw.Enter(self, tsync.RWWriter)
					ok = blockOnce(self, func(c *core.Thread) { rw.Enter(c, typ); rw.Exit(c) },
						"rwlock", func() { rw.Exit(self) }) && ok
				}
				return ok
			},
			op: func(self *core.Thread) bool {
				rw.Enter(self, tsync.RWWriter)
				rw.Exit(self)
				rw.Enter(self, tsync.RWReader)
				rw.Exit(self)
				return true
			},
		},
	}
	for _, p := range tsync.Policies() {
		cases["mutex/"+p.String()] = mutex(p)
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			whileHeld(t, holdShards, c.prime, c.op, "an operation on an empty queue waits for a shard lock")
		})
	}
}

// TestWokenWaiterSkipsDeregistration: a waiter its waker has already
// dequeued does not deregister itself again. After its park, a
// Cond.Wait woken by Signal takes one lock section, its mutex's word
// lock (4 before: the condition's word lock and shard lock to
// deregister, the mutex's word lock and shard lock to reacquire); a
// Sema.P woken by V takes no deregistration section (2 before). Shown
// by letting the woken waiter run while this goroutine holds every
// shard lock: a deregistration takes the word lock only around a shard
// section, so one that completes took neither.
func TestWokenWaiterSkipsDeregistration(t *testing.T) {
	var mu tsync.Mutex
	var cv tsync.Cond
	var sem tsync.Sema
	cases := map[string]struct {
		wait func(c *core.Thread)
		kind string
		wake func(self *core.Thread)
	}{
		"cond/Wait+Signal": {
			wait: func(c *core.Thread) { mu.Enter(c); cv.Wait(c, &mu) },
			kind: "cond",
			wake: cv.Signal,
		},
		"sema/P+V": {wait: sem.P, kind: "sema", wake: sem.V},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(sim.Config{NCPU: 1, KernelSwitchCost: -1})
			m := core.NewRuntime(k, k.NewProcess("test", nil), core.Config{})
			woken, locked, done, finish := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
			if _, err := m.Start(func(self *core.Thread, _ any) {
				// Allocate the mutex's queue, so reacquiring reaches it.
				mu.Enter(self)
				blockOnce(self, func(c *core.Thread) { mu.Enter(c); mu.Exit(c) }, "mutex", func() { mu.Exit(self) })
				w, err := self.Runtime().Create(func(w *core.Thread, _ any) {
					c.wait(w)
					close(done)
					<-finish // hold the only LWP until the locks are released
					if c.kind == "cond" {
						mu.Exit(w)
					}
				}, nil, core.CreateOpts{Flags: core.ThreadWait})
				if err != nil {
					t.Error(err)
					return
				}
				for w.State() != core.ThreadSleeping || w.BlockedOn() == nil || w.BlockedOn().Kind != c.kind {
					self.Yield()
				}
				c.wake(self) // dequeues w and readies it; it runs at our yield
				close(woken)
				<-locked
				self.Yield()
				self.Wait(w.ID())
			}, nil); err != nil {
				t.Fatal(err)
			}
			<-woken
			core.LockSleepqShards()
			close(locked)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("a woken waiter waits for a shard lock")
			}
			core.UnlockSleepqShards()
			<-done
			close(finish)
			select {
			case <-m.Exited():
			case <-time.After(10 * time.Second):
				t.Fatal("timeout waiting for process exit")
			}
		})
	}
}
