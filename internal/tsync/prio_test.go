package tsync

import (
	"sync/atomic"
	"testing"

	"sunosmt/internal/core"
)

// These tests pin the priority semantics of the sleep queues and the
// turnstile priority-inheritance protocol. They run on one LWP so the
// interleavings are deterministic: the main thread (priority 1) only
// loses the LWP when it yields, and a created thread runs until it
// parks.

// yieldUntil yields the caller until cond() holds.
func yieldUntil(t *testing.T, self *core.Thread, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1_000_000 {
			t.Fatal("condition never became true")
		}
		self.Yield()
	}
}

// sleepingOn reports whether th is parked on a synchronization object
// of the given kind.
func sleepingOn(th *core.Thread, kind string) bool {
	if th.State() != core.ThreadSleeping {
		return false
	}
	bi := th.BlockedOn()
	return bi != nil && bi.Kind == kind
}

// TestSemaVWakesHighestPriority is the regression test for the FIFO
// sleep-queue bug: a V must wake the highest-priority waiter, even
// when a lower-priority thread queued first.
func TestSemaVWakesHighestPriority(t *testing.T) {
	w := newWorld(1)
	var sem Sema
	var woke [2]atomic.Int32 // acquisition order: priorities
	var n atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		waiter := func(prio int) *core.Thread {
			c, err := r.Create(func(c *core.Thread, _ any) {
				sem.P(c)
				woke[n.Add(1)-1].Store(int32(prio))
			}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: prio})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		// Low queues FIRST; under the old FIFO buckets the first V
		// woke it despite the higher-priority waiter behind it.
		low := waiter(1)
		yieldUntil(t, self, func() bool { return sleepingOn(low, "sema") })
		high := waiter(5)
		yieldUntil(t, self, func() bool { return sleepingOn(high, "sema") })
		sem.V(self)
		yieldUntil(t, self, func() bool { return n.Load() == 1 })
		if low.State() != core.ThreadSleeping {
			t.Error("low-priority waiter woke on the first V; want it still queued")
		}
		sem.V(self)
		self.Wait(low.ID())
		self.Wait(high.ID())
	})
	waitRT(t, m)
	if woke[0].Load() != 5 || woke[1].Load() != 1 {
		t.Errorf("wake order by priority = [%d %d], want [5 1]", woke[0].Load(), woke[1].Load())
	}
}

// TestCondSignalWakesHighestPriority: same regression for cond_signal.
func TestCondSignalWakesHighestPriority(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var cv Cond
	ready := false
	var woke [2]atomic.Int32
	var n atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		waiter := func(prio int) *core.Thread {
			c, err := r.Create(func(c *core.Thread, _ any) {
				mu.Enter(c)
				for !ready {
					cv.Wait(c, &mu)
				}
				woke[n.Add(1)-1].Store(int32(prio))
				mu.Exit(c)
			}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: prio})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		low := waiter(1)
		yieldUntil(t, self, func() bool { return sleepingOn(low, "cond") })
		high := waiter(5)
		yieldUntil(t, self, func() bool { return sleepingOn(high, "cond") })
		mu.Enter(self)
		ready = true
		mu.Exit(self)
		cv.Signal(self)
		yieldUntil(t, self, func() bool { return n.Load() == 1 })
		if low.State() != core.ThreadSleeping {
			t.Error("low-priority waiter woke on Signal; want it still queued")
		}
		cv.Signal(self)
		self.Wait(low.ID())
		self.Wait(high.ID())
	})
	waitRT(t, m)
	if woke[0].Load() != 5 || woke[1].Load() != 1 {
		t.Errorf("wake order by priority = [%d %d], want [5 1]", woke[0].Load(), woke[1].Load())
	}
}

// TestMutexHandoffWakesHighestPriority: a mutex release hands off to
// the best waiter, not the oldest.
func TestMutexHandoffWakesHighestPriority(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var woke [2]atomic.Int32
	var n atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		mu.Enter(self)
		waiter := func(prio int) *core.Thread {
			c, err := r.Create(func(c *core.Thread, _ any) {
				mu.Enter(c)
				woke[n.Add(1)-1].Store(int32(prio))
				mu.Exit(c)
			}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: prio})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		low := waiter(2)
		yieldUntil(t, self, func() bool { return sleepingOn(low, "mutex") })
		high := waiter(5)
		yieldUntil(t, self, func() bool { return sleepingOn(high, "mutex") })
		mu.Exit(self)
		self.Wait(low.ID())
		self.Wait(high.ID())
	})
	waitRT(t, m)
	if woke[0].Load() != 5 || woke[1].Load() != 2 {
		t.Errorf("acquisition order by priority = [%d %d], want [5 2]", woke[0].Load(), woke[1].Load())
	}
}

// TestMutexPriorityInheritance: a high-priority thread blocking on a
// mutex wills its effective priority to the low-priority owner — even
// while the owner is itself asleep, and though it took the lock
// uncontended — and the boost is shed at release.
func TestMutexPriorityInheritance(t *testing.T) {
	var mu Mutex
	lateWaiterBoostsOwner(t, "mutex", mu.Enter, mu.Exit)
}

// TestMutexInheritanceChain: a blocking chain H -> mu2(L2) -> mu1(L1)
// wills H's priority transitively to both owners, and each boost is
// shed as its turnstile drains.
func TestMutexInheritanceChain(t *testing.T) {
	w := newWorld(1)
	var mu1, mu2 Mutex
	var gate Sema
	var effL1, effL2, afterL1, afterL2 atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		l1, err := r.Create(func(c *core.Thread, _ any) {
			mu1.Enter(c)
			gate.P(c)
			mu1.Exit(c)
			afterL1.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(l1, "sema") })
		l2, err := r.Create(func(c *core.Thread, _ any) {
			mu2.Enter(c)
			mu1.Enter(c) // blocks: l1 holds mu1
			mu1.Exit(c)
			mu2.Exit(c)
			afterL2.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 3})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(l2, "mutex") })
		h, err := r.Create(func(c *core.Thread, _ any) {
			mu2.Enter(c) // blocks: l2 holds mu2
			mu2.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 10})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(h, "mutex") })
		effL1.Store(int32(l1.EffPriority()))
		effL2.Store(int32(l2.EffPriority()))
		gate.V(self)
		self.Wait(l1.ID())
		self.Wait(l2.ID())
		self.Wait(h.ID())
	})
	waitRT(t, m)
	if got := effL2.Load(); got != 10 {
		t.Errorf("eff(l2) with high blocked on its lock = %d, want 10", got)
	}
	if got := effL1.Load(); got != 10 {
		t.Errorf("eff(l1) at the end of the chain = %d, want 10 (transitive)", got)
	}
	if got := afterL2.Load(); got != 3 {
		t.Errorf("eff(l2) after releasing = %d, want base 3", got)
	}
	if got := afterL1.Load(); got != 2 {
		t.Errorf("eff(l1) after releasing = %d, want base 2", got)
	}
}

// TestRWLockWriterInheritance: readers and writers blocked on a held
// writer lock boost the writer; the boost is shed at release.
func TestRWLockWriterInheritance(t *testing.T) {
	w := newWorld(1)
	var rw RWLock
	var gate Sema
	var effReader, effWriter, after atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		wr, err := r.Create(func(c *core.Thread, _ any) {
			rw.Enter(c, RWWriter)
			gate.P(c)
			rw.Exit(c)
			after.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(wr, "sema") })
		rd, err := r.Create(func(c *core.Thread, _ any) {
			rw.Enter(c, RWReader)
			rw.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 7})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(rd, "rwlock") })
		effReader.Store(int32(wr.EffPriority()))
		w2, err := r.Create(func(c *core.Thread, _ any) {
			rw.Enter(c, RWWriter)
			rw.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 9})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(w2, "rwlock") })
		effWriter.Store(int32(wr.EffPriority()))
		gate.V(self)
		self.Wait(wr.ID())
		self.Wait(rd.ID())
		self.Wait(w2.ID())
	})
	waitRT(t, m)
	if got := effReader.Load(); got != 7 {
		t.Errorf("writer eff with reader blocked = %d, want 7", got)
	}
	if got := effWriter.Load(); got != 9 {
		t.Errorf("writer eff with writer blocked = %d, want 9", got)
	}
	if got := after.Load(); got != 2 {
		t.Errorf("writer eff after release = %d, want base 2", got)
	}
}

// TestNoPriorityInheritanceAblation: with the knob off, a blocked
// high-priority acquirer does NOT boost the owner (the inversion the
// PriorityInversion bench reproduces), while the sleep queues stay
// priority-ordered.
func TestNoPriorityInheritanceAblation(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var gate Sema
	var effDuring atomic.Int32
	m := w.boot(t, "p", core.Config{NoPriorityInheritance: true}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		low, err := r.Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			gate.P(c)
			mu.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(low, "sema") })
		high, err := r.Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			mu.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 10})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(high, "mutex") })
		effDuring.Store(int32(low.EffPriority()))
		gate.V(self)
		self.Wait(low.ID())
		self.Wait(high.ID())
	})
	waitRT(t, m)
	if got := effDuring.Load(); got != 2 {
		t.Errorf("owner eff with inheritance disabled = %d, want 2 (no boost)", got)
	}
}

// noResidualLinks fails t if a sleep-queue or turnstile link outlived
// the threads that made it.
func noResidualLinks(t *testing.T, r *core.Runtime) {
	t.Helper()
	if sq, ts := r.ResidualLinks(); sq != 0 || ts != 0 {
		t.Errorf("residual links: %d sleepq, %d turnstiles; want 0, 0", sq, ts)
	}
}

// lateWaiterBoostsOwner: the owner took the lock while nobody waited,
// so its turnstile was not linked; a higher-priority thread that then
// blocks links it in its queue section and boosts the owner's
// effective priority, not its base, and the release sheds the boost.
func lateWaiterBoostsOwner(t *testing.T, kind string, enter, exit func(*core.Thread)) {
	w := newWorld(1)
	var gate Sema
	var effDuring, baseDuring, effAfter atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		low, err := r.Create(func(c *core.Thread, _ any) {
			enter(c) // uncontended
			gate.P(c)
			exit(c)
			effAfter.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(low, "sema") })
		high, err := r.Create(func(c *core.Thread, _ any) {
			enter(c)
			exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 10})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(high, kind) })
		effDuring.Store(int32(low.EffPriority()))
		baseDuring.Store(int32(low.Priority()))
		gate.V(self)
		self.Wait(low.ID())
		self.Wait(high.ID())
		noResidualLinks(t, r)
	})
	waitRT(t, m)
	if got := effDuring.Load(); got != 10 {
		t.Errorf("owner eff after a late waiter blocked = %d, want 10", got)
	}
	if got := baseDuring.Load(); got != 2 {
		t.Errorf("owner base priority while boosted = %d, want 2 (unchanged)", got)
	}
	if got := effAfter.Load(); got != 2 {
		t.Errorf("owner eff after release = %d, want base 2", got)
	}
}

// TestRWLockLateWaiterBoostsUncontendedWriter: lazy linking, rwlock
// writer.
func TestRWLockLateWaiterBoostsUncontendedWriter(t *testing.T) {
	var rw RWLock
	lateWaiterBoostsOwner(t, "rwlock",
		func(c *core.Thread) { rw.Enter(c, RWWriter) }, rw.Exit)
}

// TestNestedUnlinkedReleaseKeepsBoost: a thread holding A (nobody
// waits) and B (a high-priority waiter) keeps B's boost through
// Exit(A), whose turnstile was never linked, and sheds it at Exit(B).
func TestNestedUnlinkedReleaseKeepsBoost(t *testing.T) {
	w := newWorld(1)
	var a, b Mutex
	var gate Sema
	var afterA, afterB atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		holder, err := r.Create(func(c *core.Thread, _ any) {
			a.Enter(c)
			b.Enter(c)
			gate.P(c)
			a.Exit(c)
			afterA.Store(int32(c.EffPriority()))
			b.Exit(c)
			afterB.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(holder, "sema") })
		high, err := r.Create(func(c *core.Thread, _ any) {
			b.Enter(c)
			b.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 10})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(high, "mutex") })
		gate.V(self)
		self.Wait(holder.ID())
		self.Wait(high.ID())
		noResidualLinks(t, r)
	})
	waitRT(t, m)
	if got := afterA.Load(); got != 10 {
		t.Errorf("eff after releasing the uncontended lock = %d, want 10 (boost kept)", got)
	}
	if got := afterB.Load(); got != 2 {
		t.Errorf("eff after releasing the contended lock = %d, want base 2", got)
	}
}

// TestBargerKeepsWaitersItWentPast: a thread that takes a free lock
// past queued waiters links its turnstile then, though nobody blocks
// on it afterwards. Boosted through a second lock and releasing that
// one, it drops to the best waiter it barged past, not to base.
func TestBargerKeepsWaitersItWentPast(t *testing.T) {
	w := newWorld(1)
	var m1, m2 Mutex
	var gate Sema
	var afterM2, afterM1 atomic.Int32
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		barger, err := r.Create(func(c *core.Thread, _ any) {
			m1.Enter(c)
			m2.Enter(c)
			gate.P(c)
			m1.Exit(c)  // wakes w2; w1 stays queued
			m1.Enter(c) // free, taken past w1
			m2.Exit(c)  // sheds high's boost
			afterM2.Store(int32(c.EffPriority()))
			m1.Exit(c)
			afterM1.Store(int32(c.EffPriority()))
		}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 2})
		if err != nil {
			t.Fatal(err)
		}
		yieldUntil(t, self, func() bool { return sleepingOn(barger, "sema") })
		waiter := func(mu *Mutex, prio int) *core.Thread {
			c, err := r.Create(func(c *core.Thread, _ any) {
				mu.Enter(c)
				mu.Exit(c)
			}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: prio})
			if err != nil {
				t.Fatal(err)
			}
			yieldUntil(t, self, func() bool { return sleepingOn(c, "mutex") })
			return c
		}
		w1, w2, high := waiter(&m1, 5), waiter(&m1, 6), waiter(&m2, 10)
		gate.V(self)
		for _, c := range []*core.Thread{barger, w1, w2, high} {
			self.Wait(c.ID())
		}
		noResidualLinks(t, r)
	})
	waitRT(t, m)
	if got := afterM2.Load(); got != 5 {
		t.Errorf("barger eff after releasing the boosting lock = %d, want 5 (the waiter it went past)", got)
	}
	if got := afterM1.Load(); got != 2 {
		t.Errorf("barger eff after releasing both = %d, want base 2", got)
	}
}
