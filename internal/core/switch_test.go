package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
)

// These tests pin the collapsed user-level switch (Runtime.switchFrom):
// the counts that show the mechanism, the lazy signal mask's
// semantics, and the one-copy rule for the LWP's claim on its thread.

// TestSwitchStatsPingPong: over 10 000 unbound ping-pong rounds on
// one LWP — two user-level switches a round — every switch is a direct
// hand-off: the pool goroutine never runs and, both threads sharing
// one mask, the kernel is never told about a mask. The run queue sees
// exactly one push and one pop per switch.
func TestSwitchStatsPingPong(t *testing.T) {
	const rounds = 10000
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		var done atomic.Bool
		peer, err := r.Create(func(c *Thread, _ any) {
			for {
				c.Park()
				if done.Load() {
					return
				}
				self.Unpark()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		cycle := func() {
			peer.Unpark()
			self.Park()
		}
		for i := 0; i < 64; i++ {
			cycle() // first dispatch, animator start, mask install
		}
		before, qBefore := r.SwitchStats(), r.DispatchStats()
		for i := 0; i < rounds; i++ {
			cycle()
		}
		after, qAfter := r.SwitchStats(), r.DispatchStats()
		// One run queue, one row: each switch is one push (the wake)
		// and one pop (the departing thread's pick).
		if len(qBefore) != 1 || len(qAfter) != 1 {
			t.Fatalf("DispatchStats rows = %d, %d; want 1", len(qBefore), len(qAfter))
		}
		if pushes, pops := qAfter[0].Pushes-qBefore[0].Pushes, qAfter[0].Pops-qBefore[0].Pops; pushes != 2*rounds || pops != 2*rounds {
			t.Errorf("run-queue pushes, pops = %d, %d; want %d each", pushes, pops, 2*rounds)
		}
		if qAfter[0].Stolen != 0 {
			t.Errorf("stolen = %d, want 0", qAfter[0].Stolen)
		}
		if d := after.Direct - before.Direct; d != 2*rounds {
			t.Errorf("direct switches = %d, want %d", d, 2*rounds)
		}
		if d := after.Fallback - before.Fallback; d != 0 {
			t.Errorf("pool-goroutine fallbacks = %d, want 0", d)
		}
		if d := after.MaskPushes - before.MaskPushes; d != 0 {
			t.Errorf("kernel mask pushes = %d, want 0", d)
		}
		done.Store(true)
		peer.Unpark()
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
}

// TestLazyMaskSemantics: two threads with different signal masks
// alternate on one LWP. The kernel's copy of the LWP mask must equal
// the running thread's mask after every dispatch — the lazy push may
// skip only pushes that would change nothing — and an idle pool LWP
// must read fully masked.
func TestLazyMaskSemantics(t *testing.T) {
	maskA := sim.MakeSigset(sim.SIGUSR1)
	maskB := sim.MakeSigset(sim.SIGUSR2, sim.SIGINT)
	check := func(self *Thread, want sim.Sigset) {
		if got := self.m.kern.LWPMask(self.LWP()); got != want {
			t.Errorf("thread %d runs with LWP mask %v, want its own mask %v", self.ID(), got, want)
		}
	}
	// Two CPUs so that the second pool LWP below can run its way to
	// idle while the main thread still holds the first.
	m := rt(t, 2, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		var done atomic.Bool
		peer, err := r.Create(func(c *Thread, _ any) {
			c.SigSetMask(sim.SigSetMask, maskB)
			for {
				c.Park()
				check(c, maskB)
				if done.Load() {
					return
				}
				self.Unpark()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		self.SigSetMask(sim.SigSetMask, maskA)
		before := r.SwitchStats()
		const rounds = 200
		for i := 0; i < rounds; i++ {
			peer.Unpark()
			self.Park()
			check(self, maskA)
		}
		// Different masks: every switch must push.
		if d := r.SwitchStats().MaskPushes - before.MaskPushes; d < 2*rounds-1 {
			t.Errorf("mask pushes = %d over %d switches between different masks", d, 2*rounds)
		}
		done.Store(true)
		peer.Unpark()
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}

		// A second pool LWP with nothing to run idles fully masked.
		if err := r.SetConcurrency(2); err != nil {
			t.Error(err)
			return
		}
		idleMask := allSigs.Minus(sim.MakeSigset(sim.SIGKILL, sim.SIGSTOP))
		deadline := time.Now().Add(5 * time.Second)
		for {
			r.mu.Lock()
			var idle *sim.LWP
			if len(r.idle) > 0 {
				idle = r.idle[0].l
			}
			r.mu.Unlock()
			if idle != nil && idle.State() == sim.LWPParked {
				if got := r.kern.LWPMask(idle); got != idleMask {
					t.Errorf("idle pool LWP mask = %v, want all maskable signals", got)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Error("second pool LWP never went idle")
				break
			}
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
	})
	waitExit(t, m)
}

// TestPreemptSwitchDropsLWPClaim is the regression test for the stale
// pl.cur that Checkpoint's preempt branch used to leave behind: it
// dropped t.lwp and handed the LWP back without clearing the LWP's
// claim, so until the pool goroutine caught up pl.cur still named a
// thread that might already be running — and exiting — on another
// LWP, and releaseOnUnwind, which finds the LWP to release by that
// claim, could hand the exit token to the wrong one. With every
// off-LWP transition going through switchFrom there is one copy of
// the rule: a claim names a thread only while it is loaded there
// (a zombie may keep its claim for releaseOnUnwind to find). Threads
// on two LWPs preempt themselves and exit while a watcher samples the
// claims, and the process must then exit cleanly.
func TestPreemptSwitchDropsLWPClaim(t *testing.T) {
	const workers, switches = 8, 300
	var started atomic.Bool
	m := rt(t, 2, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		if err := r.SetConcurrency(2); err != nil {
			t.Error(err)
			return
		}
		ids := make([]ThreadID, 0, workers)
		for i := 0; i < workers; i++ {
			c, err := r.Create(func(c *Thread, _ any) {
				for j := 0; j < switches; j++ {
					r.mu.Lock()
					c.setReq(tfPreempt) // as flagPreemptionLocked would
					r.mu.Unlock()
					c.Checkpoint()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, c.ID())
		}
		started.Store(true)
		for _, id := range ids {
			if _, err := self.Wait(id); err != nil {
				t.Error(err)
			}
		}
	})
	for !started.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	stale := 0
	deadline := time.Now().Add(10 * time.Second)
	for exited := false; !exited; {
		select {
		case <-m.Exited():
			exited = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("timeout waiting for process exit")
			}
		}
		m.mu.Lock()
		for _, pl := range m.pool {
			if c := pl.cur; c != nil && c.lwp != pl && c.state != ThreadZombie {
				stale++
			}
		}
		m.mu.Unlock()
	}
	if stale != 0 {
		t.Errorf("%d samples saw an LWP claiming a thread not loaded on it", stale)
	}
}
