package vfs

import (
	"testing"
	"time"

	"sunosmt/internal/sim"
)

// These tests pin the blocked I/O paths at zero host allocations per
// call in steady state, in the style of internal/tsync/alloc_test.go.
// Before them a bounded kernel sleep built a timer and its closure (2
// objects each, per call), Poll a slice of the pipes it looked at,
// SleepFor a wait queue, and a pipe regrew the buffer its reads had
// walked to the end of.

// pingPong runs the measured side and its peer on two LWPs of one
// process with one CPU between them, so that each side's wait finds the
// other not yet there and blocks. The peer echoes every byte it reads on
// ping back on pong until it reads a zero.
func pingPong(t *testing.T, wait func(h *harness, l *sim.LWP, rfd int)) {
	h := newHarness(1)
	var ping, pong [2]int // read, write
	setup := h.run(func(l *sim.LWP) {
		ping[0], ping[1], _ = h.pf.Pipe(l)
		pong[0], pong[1], _ = h.pf.Pipe(l)
	})
	h.wait(t, setup, "setup")
	peer := h.run(func(l *sim.LWP) {
		var b [1]byte
		for {
			if _, err := h.pf.Read(l, ping[0], b[:]); err != nil || b[0] == 0 {
				return
			}
			h.pf.Write(l, pong[1], b[:])
		}
	})
	measured := h.run(func(l *sim.LWP) {
		b := [1]byte{1}
		cycle := func() {
			h.pf.Write(l, ping[1], b[:])
			wait(h, l, pong[0])
			if n, err := h.pf.Read(l, pong[0], b[:]); n != 1 || err != nil {
				t.Errorf("read of the echo = %d, %v", n, err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("round trip allocates %.2f objects/op, want 0", avg)
		}
		b[0] = 0
		h.pf.Write(l, ping[1], b[:])
	})
	h.wait(t, measured, "measured side")
	h.wait(t, peer, "peer")
}

// TestPipeReadBlockedZeroAlloc: both sides block in Pipe.read.
func TestPipeReadBlockedZeroAlloc(t *testing.T) {
	pingPong(t, func(*harness, *sim.LWP, int) {})
}

// TestPollBlockedZeroAlloc: the measured side waits for the echo in a
// Poll with a timeout — which arms the LWP's sleep timer — and is woken
// by the peer's write long before it.
func TestPollBlockedZeroAlloc(t *testing.T) {
	fds := make([]PollFD, 1)
	pingPong(t, func(h *harness, l *sim.LWP, rfd int) {
		fds[0] = PollFD{FD: rfd, Events: PollIn}
		if n, err := h.pf.Poll(l, fds, time.Second); n != 1 || err != nil {
			t.Errorf("poll = %d, %v", n, err)
		}
	})
}

// TestSleepForZeroAlloc: a sleep that only its timeout ends — the one
// path on which the LWP's timer fires.
func TestSleepForZeroAlloc(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		nap := func() {
			if err := h.k.SleepFor(l, 20*time.Microsecond); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 64; i++ {
			nap()
		}
		if avg := testing.AllocsPerRun(200, nap); avg > 0 {
			t.Errorf("SleepFor allocates %.2f objects/op, want 0", avg)
		}
	})
	h.wait(t, done, "sleeper")
}
