package ktime

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTimerReset runs one script over one timer on each clock: Reset
// while pending (the old deadline then passes without a call), Reset
// after the call, Reset after Stop. The host-time clocks only sleep
// through the negative checks, with the timer armed far away; every
// expected call is awaited.
func TestTimerReset(t *testing.T) {
	manual := func(scale time.Duration) func() (Clock, func(time.Duration)) {
		return func() (Clock, func(time.Duration)) {
			m := NewManual()
			return m, func(d time.Duration) { m.Advance(scale * d) }
		}
	}
	clocks := []struct {
		name string
		unit time.Duration
		make func() (c Clock, advance func(time.Duration))
	}{
		{"Real", 2 * time.Millisecond, func() (Clock, func(time.Duration)) { return NewReal(), time.Sleep }},
		// No idle predicate: a FastForward clock keeps host time.
		{"FastForward", 2 * time.Millisecond, func() (Clock, func(time.Duration)) { return NewFastForward(), time.Sleep }},
		{"Manual", time.Second, manual(1)},
		// Doubling jitter over a Manual clock advanced twice as far: the
		// script holds only if Reset is perturbed like AfterFunc.
		{"Jittered", time.Second, func() (Clock, func(time.Duration)) {
			c, advance := manual(2)()
			return NewJittered(c, func(d time.Duration) time.Duration { return 2 * d }), advance
		}},
	}
	for _, tc := range clocks {
		t.Run(tc.name, func(t *testing.T) {
			c, advance := tc.make()
			u := tc.unit
			var calls atomic.Int32
			want := func(n int32, when string) {
				t.Helper()
				for i := 0; calls.Load() < n && i < 5000; i++ {
					time.Sleep(time.Millisecond)
				}
				if got := calls.Load(); got != n {
					t.Fatalf("%s: %d calls, want %d", when, got, n)
				}
			}
			reset := func(tm Timer, d time.Duration, pending bool, when string) {
				t.Helper()
				if got := tm.Reset(d); got != pending {
					t.Fatalf("%s: Reset reported pending=%v, want %v", when, got, pending)
				}
			}

			// 50 units, not 10: on a host-time clock a loaded machine
			// must not sleep the first deadline away before the Reset.
			tm := c.AfterFunc(50*u, func() { calls.Add(1) })
			advance(5 * u)
			reset(tm, 500*u, true, "while pending")
			advance(50 * u)
			want(0, "old deadline passed after Reset")
			reset(tm, u, true, "while pending again")
			advance(2 * u)
			want(1, "reset deadline passed")

			reset(tm, u, false, "after the call")
			advance(2 * u)
			want(2, "deadline of a re-armed fired timer passed")

			reset(tm, 500*u, false, "after the second call")
			if !tm.Stop() {
				t.Fatal("Stop of a pending timer reported false")
			}
			reset(tm, u, false, "after Stop")
			advance(2 * u)
			want(3, "deadline of a re-armed stopped timer passed")
			advance(5 * u)
			want(3, "nothing armed")
		})
	}
}
