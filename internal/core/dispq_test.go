package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDispatchOrder pins the priority semantics of the run queue:
// FIFO among equal priorities, higher priorities first, and
// SetPriority on a queued runnable thread taking effect at the next
// pop (the thread moves to its new level immediately, not at some
// later requeue).
func TestDispatchOrder(t *testing.T) {
	cases := []struct {
		name  string
		prios []int
		// setPrio, if non-nil, re-prioritizes queued threads
		// (index -> new priority) before any of them has run.
		setPrio map[int]int
		want    []int // completion order, as indices into prios
	}{
		{
			name:  "fifo-among-equals",
			prios: []int{1, 1, 1, 1},
			want:  []int{0, 1, 2, 3},
		},
		{
			name:  "higher-priority-first",
			prios: []int{1, 5, 3},
			want:  []int{1, 2, 0},
		},
		{
			name:  "equal-within-levels",
			prios: []int{2, 7, 2, 7},
			want:  []int{1, 3, 0, 2},
		},
		{
			name:    "setpriority-boost-next-pop",
			prios:   []int{1, 1, 1},
			setPrio: map[int]int{2: 10},
			want:    []int{2, 0, 1},
		},
		{
			name:    "setpriority-demote-next-pop",
			prios:   []int{5, 5, 2},
			setPrio: map[int]int{0: 1},
			want:    []int{1, 2, 0},
		},
		{
			name:    "setpriority-requeues-at-new-level-tail",
			prios:   []int{3, 3, 1},
			setPrio: map[int]int{2: 3}, // joins level 3 behind its equals
			want:    []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// One LWP: the main thread holds it, so created
			// threads stay queued until main blocks in Wait.
			m := rt(t, 1, Config{}, func(self *Thread, _ any) {
				r := self.Runtime()
				order := make(chan int, len(tc.prios))
				ths := make([]*Thread, len(tc.prios))
				for i, prio := range tc.prios {
					i := i
					th, err := r.Create(func(*Thread, any) {
						order <- i
					}, nil, CreateOpts{Flags: ThreadWait, Priority: prio})
					if err != nil {
						t.Error(err)
						return
					}
					ths[i] = th
				}
				for idx, prio := range tc.setPrio {
					if _, err := r.SetPriority(ths[idx], prio); err != nil {
						t.Error(err)
						return
					}
				}
				for _, th := range ths {
					self.Wait(th.ID())
				}
				for _, want := range tc.want {
					if got := <-order; got != want {
						t.Errorf("completion order: got thread %d, want %d", got, want)
					}
				}
			})
			waitExit(t, m)
		})
	}
}

// TestOneQueueOrder pins what the single run queue guarantees on a
// multi-CPU kernel (NCPU 4, one pool LWP so the order is exact): a
// priority raise on a queued thread takes effect at the next pop, and
// a yielder joins the tail of its level, so it never outruns an
// earlier-queued equal — equals that yield run strictly round-robin.
func TestOneQueueOrder(t *testing.T) {
	const yields = 3
	var mu sync.Mutex
	var order []string
	m := rt(t, 4, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		// Main outranks everything, so it neither joins the rotation
		// nor is flagged for preemption by the raise below.
		if _, err := r.SetPriority(self, 9); err != nil {
			t.Error(err)
			return
		}
		ths := make(map[string]*Thread)
		for _, name := range []string{"a", "b", "c", "d"} {
			name := name
			th, err := r.Create(func(c *Thread, _ any) {
				for i := 0; i < yields; i++ {
					mu.Lock()
					order = append(order, name)
					mu.Unlock()
					c.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait, Priority: 1})
			if err != nil {
				t.Error(err)
				return
			}
			ths[name] = th
		}
		if _, err := r.SetPriority(ths["d"], 5); err != nil {
			t.Error(err)
			return
		}
		for _, th := range ths {
			if _, err := self.Wait(th.ID()); err != nil {
				t.Error(err)
			}
		}
	})
	waitExit(t, m)
	// d, raised while queued last, runs first and — alone at its level
	// — keeps the LWP through its yields; a, b, c then rotate.
	want := "d d d a b c a b c a b c"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("run order = %q, want %q", got, want)
	}
}

// TestRunQueueHammer drives the run queue from every side at once on
// four LWPs: workers yield (push + pop in one section) while the main
// thread re-prioritizes them wherever they are — queued ones move
// level — and stops them, which dequeues a runnable one, then
// continues them. Every worker must still finish its count, and
// nothing may be left queued or linked.
func TestRunQueueHammer(t *testing.T) {
	const workers, count, rounds = 12, 100, 30
	var counts [workers]atomic.Int64
	m := rt(t, 4, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		if err := r.SetConcurrency(4); err != nil {
			t.Error(err)
			return
		}
		// Above every priority the workers are given, so the hammering
		// is never starved by the yield loops.
		if _, err := r.SetPriority(self, 9); err != nil {
			t.Error(err)
			return
		}
		ths := make([]*Thread, workers)
		for i := range ths {
			i := i
			th, err := r.Create(func(c *Thread, _ any) {
				for n := 0; n < count; n++ {
					counts[i].Add(1)
					c.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ths[i] = th
		}
		for round := 0; round < rounds; round++ {
			for i, th := range ths {
				if _, err := r.SetPriority(th, 1+(round+i)%3); err != nil {
					t.Errorf("SetPriority: %v", err)
				}
				// Either reports ErrNoThread once the worker has
				// finished; a Stop it finishes under returns nil.
				if err := self.Stop(th); err != nil && err != ErrNoThread {
					t.Errorf("Stop: %v", err)
				}
				if err := r.Continue(th); err != nil && err != ErrNoThread {
					t.Errorf("Continue: %v", err)
				}
			}
		}
		for _, th := range ths {
			if _, err := self.Wait(th.ID()); err != nil {
				t.Error(err)
			}
		}
		if n := r.RunnableThreads(); n != 0 {
			t.Errorf("%d threads still queued after every worker was reaped", n)
		}
		if sq, ts := r.ResidualLinks(); sq != 0 || ts != 0 {
			t.Errorf("residual links: %d sleep-queue, %d turnstile", sq, ts)
		}
	})
	waitExit(t, m)
	for i := range counts {
		if n := counts[i].Load(); n != count {
			t.Errorf("worker %d counted %d, want %d", i, n, count)
		}
	}
}

// TestStopOfExitingThreadReturns: thread_stop waits for a running
// target to stop at its next checkpoint; a target that exits instead,
// never reaching one, must end the wait too (it used to strand the
// caller parked forever).
func TestStopOfExitingThreadReturns(t *testing.T) {
	var release atomic.Bool
	var mainThread atomic.Pointer[Thread]
	m := rt(t, 2, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		if err := r.SetConcurrency(2); err != nil {
			t.Error(err)
			return
		}
		var running atomic.Bool
		target, err := r.Create(func(*Thread, any) {
			running.Store(true)
			for !release.Load() {
				runtime.Gosched() // on its LWP, at no checkpoint
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		for !running.Load() {
			self.Yield()
		}
		mainThread.Store(self)
		if err := self.Stop(target); err != nil {
			t.Errorf("Stop of a thread that exits = %v, want nil", err)
		}
		if _, err := self.Wait(target.ID()); err != nil {
			t.Error(err)
		}
	})
	// Let the target exit only once main is parked waiting for it.
	deadline := time.Now().Add(10 * time.Second)
	for mt := mainThread.Load(); mt == nil || mt.State() != ThreadWaiting; mt = mainThread.Load() {
		if time.Now().After(deadline) {
			t.Fatal("main never parked in Stop")
		}
		time.Sleep(100 * time.Microsecond)
	}
	release.Store(true)
	waitExit(t, m)
}

// TestStopRemovesQueuedThreadOnce: thread_stop on a queued runnable
// thread dequeues it exactly once — the body never runs before
// Continue, runs exactly once after, and a second Stop of the already
// stopped thread is a no-op.
func TestStopRemovesQueuedThreadOnce(t *testing.T) {
	var runs atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		th, err := r.Create(func(*Thread, any) {
			runs.Add(1)
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		// Queued, never run (main holds the only LWP).
		if err := self.Stop(th); err != nil {
			t.Errorf("Stop: %v", err)
		}
		if got := th.State(); got != ThreadStopped {
			t.Errorf("state after stop = %v, want stopped", got)
		}
		if err := self.Stop(th); err != nil { // second stop: no-op
			t.Errorf("second Stop: %v", err)
		}
		self.Yield() // would dispatch th if the remove had missed
		if n := runs.Load(); n != 0 {
			t.Errorf("stopped thread ran %d times before Continue", n)
		}
		if err := r.Continue(th); err != nil {
			t.Errorf("Continue: %v", err)
		}
		if _, err := self.Wait(th.ID()); err != nil {
			t.Errorf("Wait: %v", err)
		}
		if n := runs.Load(); n != 1 {
			t.Errorf("thread body ran %d times, want exactly 1", n)
		}
	})
	waitExit(t, m)
}

// TestSleepqRemoveOnlyTarget is the regression test for the
// thread_wait deregistration bug: removing one waiter from a wait
// channel must leave every other registered waiter queued (the old
// code dropped the whole registration list for the id).
func TestSleepqRemoveOnlyTarget(t *testing.T) {
	wc := AllocWaitChan()
	a, b, c := &Thread{id: 1}, &Thread{id: 2}, &Thread{id: 3}
	wc.Enqueue(a)
	wc.Enqueue(b)
	wc.Enqueue(c)
	if !wc.Remove(b) {
		t.Fatal("Remove(b) = false, want true")
	}
	if wc.Remove(b) {
		t.Fatal("second Remove(b) = true, want false")
	}
	if got := wc.Len(); got != 2 {
		t.Fatalf("Len after removing one of three = %d, want 2", got)
	}
	if got := wc.DequeueOne(); got != a {
		t.Fatalf("first remaining waiter = %v, want a", got)
	}
	if got := wc.DequeueOne(); got != c {
		t.Fatalf("second remaining waiter = %v, want c", got)
	}
	if got := wc.DequeueOne(); got != nil {
		t.Fatalf("DequeueOne on empty = %v, want nil", got)
	}
}

// TestAnyWaitSurvivesSpuriousWake: a Wait(0) caller that wakes without
// its zombie (here: an explicit spurious Unpark) must re-register and
// still reap a later exit, and a concurrent second any-waiter must not
// lose its registration when the first deregisters.
func TestAnyWaitSurvivesSpuriousWake(t *testing.T) {
	m := rt(t, 2, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		reaped := make(chan ThreadID, 2)
		// The waiters are not THREAD_WAIT themselves: a finished
		// waiter must not become a zombie the other's Wait(0) reaps.
		w1, err := r.Create(func(c *Thread, _ any) {
			id, err := c.Wait(0)
			if err != nil {
				t.Errorf("waiter 1: %v", err)
				return
			}
			reaped <- id
		}, nil, CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		// Let w1 park in Wait(0), then wake it spuriously: it must
		// deregister only itself and re-register.
		for w1.State() != ThreadWaiting {
			self.Yield()
		}
		w1.Unpark()
		w2, err := r.Create(func(c *Thread, _ any) {
			id, err := c.Wait(0)
			if err != nil {
				t.Errorf("waiter 2: %v", err)
				return
			}
			reaped <- id
		}, nil, CreateOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		// Two exiting children: each waiter must reap exactly one.
		c1, _ := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		c2, _ := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		got := map[ThreadID]bool{<-reaped: true, <-reaped: true}
		if !got[c1.ID()] || !got[c2.ID()] {
			t.Errorf("reaped %v, want {%d, %d}", got, c1.ID(), c2.ID())
		}
		_ = w1
		_ = w2
	})
	waitExit(t, m)
}

// TestTargetedWaitSurvivesSpuriousWake: same for Wait(id) — after a
// spurious wake the caller deregisters only itself from the target's
// channel and still completes when the target exits.
func TestTargetedWaitSurvivesSpuriousWake(t *testing.T) {
	m := rt(t, 2, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		var release atomic.Bool
		child, err := r.Create(func(c *Thread, _ any) {
			for !release.Load() {
				c.Yield()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		done := make(chan error, 1)
		w, err := r.Create(func(c *Thread, _ any) {
			id, err := c.Wait(child.ID())
			if err == nil && id != child.ID() {
				t.Errorf("Wait returned %d, want %d", id, child.ID())
			}
			done <- err
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		for w.State() != ThreadWaiting {
			self.Yield()
		}
		w.Unpark() // spurious: the child has not exited
		for i := 0; i < 3; i++ {
			self.Yield() // let the waiter loop and re-register
		}
		release.Store(true)
		if err := <-done; err != nil {
			t.Errorf("targeted wait after spurious wake: %v", err)
		}
		self.Wait(w.ID())
	})
	waitExit(t, m)
}

// TestRunqStats: depth and per-priority occupancy reflect the queued
// threads (mtstat's view of the dispatcher).
func TestRunqStats(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		var ths []*Thread
		for _, prio := range []int{1, 1, 3, 7, 7, 7} {
			th, err := r.Create(func(*Thread, any) {}, nil,
				CreateOpts{Flags: ThreadWait, Priority: prio})
			if err != nil {
				t.Error(err)
				return
			}
			ths = append(ths, th)
		}
		depth, occ := r.RunqStats()
		if depth != 6 {
			t.Errorf("depth = %d, want 6", depth)
		}
		want := []PrioCount{{1, 2}, {3, 1}, {7, 3}}
		if len(occ) != len(want) {
			t.Fatalf("occupancy = %v, want %v", occ, want)
		}
		for i := range want {
			if occ[i] != want[i] {
				t.Errorf("occupancy[%d] = %v, want %v", i, occ[i], want[i])
			}
		}
		for _, th := range ths {
			self.Wait(th.ID())
		}
		if depth, occ := r.RunqStats(); depth != 0 || len(occ) != 0 {
			t.Errorf("after drain: depth=%d occ=%v, want empty", depth, occ)
		}
	})
	waitExit(t, m)
}

// TestSetPriorityRepositionsSleepingWaiter: raising the priority of a
// thread that is already parked on a wait channel must reposition it
// within its sleep-queue bucket, so the next DequeueOne returns it
// ahead of earlier-queued equals — the raise-while-blocked half of
// priority-ordered sleep queues.
func TestSetPriorityRepositionsSleepingWaiter(t *testing.T) {
	wc := AllocWaitChan()
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		sleeper := func() *Thread {
			th, err := r.Create(func(c *Thread, _ any) {
				wc.Enqueue(c)
				c.Park()
			}, nil, CreateOpts{Flags: ThreadWait, Priority: 1})
			if err != nil {
				t.Error(err)
				return nil
			}
			for c := 0; th.State() != ThreadSleeping; c++ {
				if c > 1_000_000 {
					t.Fatal("thread never parked")
				}
				self.Yield()
			}
			return th
		}
		a := sleeper() // queued first
		b := sleeper() // queued second, same priority
		if _, err := r.SetPriority(b, 5); err != nil {
			t.Errorf("SetPriority on sleeping thread: %v", err)
		}
		if got := wc.DequeueOne(); got != b {
			t.Errorf("first dequeue after raising b = %v, want b (tid %d)", got, b.ID())
		}
		if got := wc.DequeueOne(); got != a {
			t.Errorf("second dequeue = %v, want a (tid %d)", got, a.ID())
		}
		a.Unpark()
		b.Unpark()
		self.Wait(a.ID())
		self.Wait(b.ID())
	})
	waitExit(t, m)
}
