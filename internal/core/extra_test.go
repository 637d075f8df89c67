package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
)

func TestThreadNewLWPFlagGrowsPool(t *testing.T) {
	m := rt(t, 4, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		before := r.PoolSize()
		c, err := r.Create(func(*Thread, any) {}, nil,
			CreateOpts{Flags: ThreadWait | ThreadNewLWP})
		if err != nil {
			t.Error(err)
			return
		}
		if got := r.PoolSize(); got != before+1 {
			t.Errorf("pool = %d after THREAD_NEW_LWP, want %d", got, before+1)
		}
		self.Wait(c.ID())
	})
	waitExit(t, m)
}

func TestPreemptionByHigherPriorityThread(t *testing.T) {
	// Two LWPs: the main thread keeps running while the low-priority
	// spinner occupies the other LWP; creating the high-priority
	// thread must flag the spinner for preemption at its next
	// checkpoint.
	m := rt(t, 2, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		order := make(chan string, 2)
		var lowDone atomic.Bool
		var started atomic.Bool
		low, _ := r.Create(func(c *Thread, _ any) {
			started.Store(true)
			for i := 0; i < 5_000_000 && !lowDone.Load(); i++ {
				c.Checkpoint() // preemption point
			}
			order <- "low"
			lowDone.Store(true)
		}, nil, CreateOpts{Flags: ThreadWait, Priority: 1})
		for !started.Load() {
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
		hi, _ := r.Create(func(c *Thread, _ any) {
			order <- "high"
			lowDone.Store(true)
		}, nil, CreateOpts{Flags: ThreadWait, Priority: 50})
		self.Wait(hi.ID())
		self.Wait(low.ID())
		if first := <-order; first != "high" {
			t.Errorf("first finisher = %q: high-priority thread did not preempt", first)
		}
	})
	waitExit(t, m)
}

func TestSigSendAllReachesEveryThread(t *testing.T) {
	var handled atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.Signal(sim.SIGUSR1, sim.SigCatch, func(*Thread, sim.Signal) { handled.Add(1) })
		var ids []ThreadID
		for i := 0; i < 3; i++ {
			c, _ := r.Create(func(c *Thread, _ any) {
				for c.Pending() == 0 && handled.Load() < 4 {
					c.Yield()
				}
				c.Checkpoint() // deliver
			}, nil, CreateOpts{Flags: ThreadWait})
			ids = append(ids, c.ID())
		}
		self.Yield()
		if err := self.SigSendAll(sim.SIGUSR1); err != nil {
			t.Error(err)
		}
		self.Checkpoint() // handle our own copy
		for _, id := range ids {
			self.Wait(id)
		}
	})
	waitExit(t, m)
	if handled.Load() != 4 {
		t.Fatalf("handled = %d, want 4 (3 workers + main)", handled.Load())
	}
}

func TestStopThenContinueParkedThread(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		var resumed atomic.Bool
		c, _ := r.Create(func(c *Thread, _ any) {
			c.Park()
			resumed.Store(true)
		}, nil, CreateOpts{Flags: ThreadWait})
		// Let it park.
		for c.State() != ThreadSleeping {
			self.Yield()
		}
		// Waking it with a stop request pending must stop, not run.
		r.mu.Lock()
		c.setReq(tfStopReq)
		r.mu.Unlock()
		c.Unpark()
		for c.State() != ThreadStopped {
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
		if resumed.Load() {
			t.Error("thread ran past its park despite stop request")
		}
		r.Continue(c)
		self.Wait(c.ID())
		if !resumed.Load() {
			t.Error("thread never resumed after continue")
		}
	})
	waitExit(t, m)
}

func TestConcurrencyAutoGrowsOnlyUnderSigwaiting(t *testing.T) {
	// With plenty of runnable threads but no blocking, the automatic
	// policy keeps a single LWP (growth only happens on SIGWAITING).
	m := rt(t, 4, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		var ids []ThreadID
		for i := 0; i < 16; i++ {
			c, _ := r.Create(func(c *Thread, _ any) {
				for j := 0; j < 20; j++ {
					c.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			ids = append(ids, c.ID())
		}
		for _, id := range ids {
			self.Wait(id)
		}
		if got := r.PoolSize(); got != 1 {
			t.Errorf("pool grew to %d without any blocking", got)
		}
	})
	waitExit(t, m)
}

func TestWaitReturnsZombieThatExitedBeforeWait(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		c, _ := self.Runtime().Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		// Let it exit first.
		for {
			if _, ok := self.Runtime().Find(c.ID()); !ok {
				break
			}
			self.Yield()
		}
		got, err := self.Wait(c.ID())
		if err != nil || got != c.ID() {
			t.Errorf("Wait on pre-exited zombie = %d, %v", got, err)
		}
	})
	waitExit(t, m)
}

func TestManyWaitersManyZombies(t *testing.T) {
	// Several threads each wait for a distinct child; all complete.
	m := rt(t, 2, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		var waiters []ThreadID
		for i := 0; i < 8; i++ {
			child, _ := r.Create(func(c *Thread, _ any) { c.Yield() }, nil,
				CreateOpts{Flags: ThreadWait})
			w, _ := r.Create(func(c *Thread, arg any) {
				id := arg.(ThreadID)
				if got, err := c.Wait(id); err != nil || got != id {
					t.Errorf("waiter: Wait(%d) = %d, %v", id, got, err)
				}
			}, child.ID(), CreateOpts{Flags: ThreadWait})
			waiters = append(waiters, w.ID())
		}
		for _, id := range waiters {
			self.Wait(id)
		}
	})
	waitExit(t, m)
}
