package sim

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/ktime"
)

// countingClock counts the Now calls made on the clock it wraps: the
// whole instrument behind the exact-count tests here and in vfs and
// core. Counts repeat exactly where a profiler's samples do not.
type countingClock struct {
	ktime.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Clock.Now()
}

// TestClockReadsPerEntry pins the kernel entry discipline: one clock
// reading per entry, handed down to every …Locked helper, and a fresh
// one only after a cond.Wait. One LWP on one CPU, no simulated switch
// cost, tracing off. At the parent of the change that introduced the
// discipline the same entries read 1 / 5 / 4 / 1 / 0 / 6 times.
func TestClockReadsPerEntry(t *testing.T) {
	clk := &countingClock{Clock: ktime.NewReal()}
	k := NewKernel(Config{NCPU: 1, Clock: clk, KernelSwitchCost: -1})
	p := k.NewProcess("count", nil)
	wq := NewWaitQ("nobody")
	_, done := animate(k, p, func(l *LWP) {
		for _, e := range []struct {
			name string
			want int64
			op   func()
		}{
			{"Checkpoint", 1, func() { k.Checkpoint(l) }},
			{"SyscallEnter+SyscallExit", 2, func() { k.SyscallEnter(l); k.SyscallExit(l) }},
			{"Yield", 1, func() { k.Yield(l) }},
			{"Unpark+Park", 1, func() { k.Unpark(l); k.Park(l) }},
			{"Wakeup+WakeupAll", 0, func() { k.Wakeup(wq, -1); k.WakeupAll(wq, wq) }},
			// Entry, then the re-read after the wait the timeout ends;
			// the timer callback's own reading makes three.
			{"SleepIf(timeout)", 3, func() { k.SleepIf(l, wq, nil, SleepOpts{Timeout: time.Millisecond}) }},
		} {
			before := clk.reads.Load()
			e.op()
			if got := clk.reads.Load() - before; got != e.want {
				t.Errorf("%s: %d clock reads, want %d", e.name, got, e.want)
			}
		}
	})
	waitClosed(t, done, "animator")
}
