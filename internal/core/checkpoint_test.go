package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
)

// countingClock counts Now calls (see internal/sim/clockreads_test.go).
type countingClock struct {
	ktime.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestCheckpointOneSection: with nothing requested of the thread and no
// signal deliverable, Thread.Checkpoint reads the clock once and takes
// neither Runtime.mu nor k.mu, shown by making the call while both are
// held. Before, Checkpoint polled for signals unconditionally:
// Runtime.mu for the thread-directed set, then k.mu again in TakeSignal
// for the answer Kernel.Checkpoint had just given; and Kernel.Checkpoint
// itself took k.mu to learn that nothing was posted. Run with a timeout:
// either version deadlocks here.
func TestCheckpointOneSection(t *testing.T) {
	clk := &countingClock{Clock: ktime.NewReal()}
	k := sim.NewKernel(sim.Config{NCPU: 2, Clock: clk, KernelSwitchCost: -1})
	m := NewRuntime(k, k.NewProcess("test", nil), Config{})
	ready, locked, checked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if _, err := m.Start(func(self *Thread, _ any) {
		self.Checkpoint()
		before := clk.reads.Load()
		self.Checkpoint()
		if got := clk.reads.Load() - before; got != 1 {
			t.Errorf("uncontended Checkpoint: %d clock reads, want 1", got)
		}
		close(ready)
		<-locked
		self.Checkpoint()
		close(checked)
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-ready
	release := holdKernelLock(t, k)
	m.mu.Lock()
	before := clk.reads.Load()
	close(locked)
	select {
	case <-checked:
		if got := clk.reads.Load() - before; got != 1 {
			t.Errorf("Checkpoint under both locks: %d clock reads, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Error("Checkpoint with nothing pending waits for Runtime.mu or k.mu")
	}
	m.mu.Unlock()
	release()
	waitExit(t, m)
}

// holdKernelLock parks a helper LWP of a process of its own inside a
// kernel section — SleepIf evaluates its commit condition under k.mu —
// and returns once k.mu is held; release lets the helper go. The
// kernel needs a CPU free for the helper.
func holdKernelLock(t *testing.T, k *sim.Kernel) (release func()) {
	t.Helper()
	l, err := k.NewLWP(k.NewProcess("holder", nil), sim.ClassTS, 30)
	if err != nil {
		t.Fatal(err)
	}
	held, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover(); k.ExitLWP(l) }()
		k.Start(l)
		k.SleepIf(l, sim.NewWaitQ("hold"), func() bool {
			close(held)
			<-rel
			return false
		}, sim.SleepOpts{})
	}()
	<-held
	return func() { close(rel); <-done }
}

// TestCheckpointDeliversThreadKill: a thread_kill posted to a running
// thread sets its pending bit and is handled at the thread's next
// Checkpoint, which clears the bit.
func TestCheckpointDeliversThreadKill(t *testing.T) {
	var handled atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		self.Runtime().Signal(sim.SIGUSR1, sim.SigCatch, func(*Thread, sim.Signal) { handled.Add(1) })
		self.Checkpoint()
		if err := self.Kill(self, sim.SIGUSR1); err != nil {
			t.Error(err)
		}
		if handled.Load() != 0 || !self.hasReq(tfSigPending) {
			t.Errorf("after Kill: handled = %d, pending bit = %v; want 0, true", handled.Load(), self.hasReq(tfSigPending))
		}
		self.Checkpoint()
		if handled.Load() != 1 || self.hasReq(tfSigPending) {
			t.Errorf("after Checkpoint: handled = %d, pending bit = %v; want 1, false", handled.Load(), self.hasReq(tfSigPending))
		}
	})
	waitExit(t, m)
}

// TestCheckpointMaskedKillPendsWithBit: a thread_kill posted while
// masked pends with the bit set through any number of checkpoints;
// SigSetMask unmasking it delivers it and clears the bit.
func TestCheckpointMaskedKillPendsWithBit(t *testing.T) {
	var handled atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		self.Runtime().Signal(sim.SIGUSR2, sim.SigCatch, func(*Thread, sim.Signal) { handled.Add(1) })
		set := sim.MakeSigset(sim.SIGUSR2)
		self.SigSetMask(sim.SigBlock, set)
		self.Kill(self, sim.SIGUSR2)
		self.Checkpoint()
		self.Checkpoint()
		if handled.Load() != 0 || !self.hasReq(tfSigPending) || !self.Pending().Has(sim.SIGUSR2) {
			t.Errorf("masked: handled = %d, pending bit = %v, pending = %v", handled.Load(), self.hasReq(tfSigPending), self.Pending())
		}
		self.SigSetMask(sim.SigUnblock, set)
		if handled.Load() != 1 || self.hasReq(tfSigPending) || self.Pending() != 0 {
			t.Errorf("unmasked: handled = %d, pending bit = %v, pending = %v", handled.Load(), self.hasReq(tfSigPending), self.Pending())
		}
	})
	waitExit(t, m)
}

// TestCheckpointTakesProcessSignal: a process-directed signal posted
// between two checkpoints is taken at the second, on
// Kernel.Checkpoint's word alone — the thread's own pending bit stays
// clear throughout.
func TestCheckpointTakesProcessSignal(t *testing.T) {
	var handled atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		r.Signal(sim.SIGUSR1, sim.SigCatch, func(*Thread, sim.Signal) { handled.Add(1) })
		self.Checkpoint()
		if err := r.Kernel().PostSignal(r.Process(), sim.SIGUSR1); err != nil {
			t.Error(err)
		}
		if handled.Load() != 0 || self.hasReq(tfSigPending) {
			t.Errorf("after PostSignal: handled = %d, pending bit = %v; want 0, false", handled.Load(), self.hasReq(tfSigPending))
		}
		self.Checkpoint()
		if handled.Load() != 1 {
			t.Errorf("after the second Checkpoint: handled = %d, want 1", handled.Load())
		}
	})
	waitExit(t, m)
}

// TestRecycledShellStartsWithPendingBitClear: a thread that exits with
// a masked thread_kill still pending leaves neither the signal nor the
// bit to the next thread made from its shell.
func TestRecycledShellStartsWithPendingBitClear(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		c1, err := r.Create(func(c *Thread, _ any) {
			c.SigSetMask(sim.SigBlock, sim.MakeSigset(sim.SIGUSR2))
			c.Kill(c, sim.SIGUSR2)
			if !c.hasReq(tfSigPending) {
				t.Error("masked Kill left the pending bit clear")
			}
		}, nil, CreateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		self.Yield() // c1 runs, exits, and parks its shell on the freelist
		c2, err := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Error("second create did not recycle the exited thread's shell")
		}
		if c2.hasReq(tfSigPending) || c2.Pending() != 0 {
			t.Errorf("recycled shell: pending bit = %v, pending = %v; want false, none", c2.hasReq(tfSigPending), c2.Pending())
		}
		if _, err := self.Wait(c2.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
}
