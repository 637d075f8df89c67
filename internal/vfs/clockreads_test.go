package vfs

import (
	"runtime"
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

// awaitState spins, off the clock, until the LWP is in the given state.
func awaitState(l *sim.LWP, s sim.LWPState) {
	for l.State() != s {
		runtime.Gosched()
	}
}

// TestClockReadsPerEntry counts what one pipe or poll system call reads
// of the clock: SyscallEnter's reading and SyscallExit's, and a
// blocking read's two more (the sleep's entry, and the re-read after
// its wait). A wake-up reads nothing; with the event rings on, one that
// finds a sleeper reads once to stamp its record, and a dispatch still
// reads nothing of its own. Two CPUs, so a woken LWP finds one free and is
// dispatched in the section that made it runnable; no simulated switch
// cost. At the parent of the change that introduced the discipline:
// Write 5, ready Poll 5, Read 5, round trip 28 (rings on: 5, 5, 5, 32).
func TestClockReadsPerEntry(t *testing.T) {
	t.Run("rings off", func(t *testing.T) { clockReadsPerEntry(t, 0, 2, 2, 2, 12) })
	t.Run("rings on", func(t *testing.T) { clockReadsPerEntry(t, 4096, 2, 2, 2, 14) })
}

func clockReadsPerEntry(t *testing.T, eventRing int, write, poll, read, roundTrip int64) {
	clk := &countingClock{Clock: ktime.NewReal()}
	h := newHarnessCfg(sim.Config{NCPU: 2, Clock: clk, KernelSwitchCost: -1, EventRing: eventRing})
	awaitState(h.keeper, sim.LWPParked)
	reads := func(op func()) int64 {
		before := clk.reads.Load()
		op()
		return clk.reads.Load() - before
	}
	var ping, pong [2]int // read, write
	one := h.run(func(l *sim.LWP) {
		ping[0], ping[1], _ = h.pf.Pipe(l)
		pong[0], pong[1], _ = h.pf.Pipe(l)
		b := []byte{1}
		fds := []PollFD{{FD: ping[0], Events: PollIn}}
		for _, e := range []struct {
			name string
			want int64
			op   func()
		}{
			{"non-blocking Write", write, func() { h.pf.Write(l, ping[1], b) }},
			{"ready Poll", poll, func() { h.pf.Poll(l, fds, time.Second) }},
			{"non-blocking Read", read, func() { h.pf.Read(l, ping[0], b) }},
		} {
			if got := reads(e.op); got != e.want {
				t.Errorf("%s: %d clock reads, want %d", e.name, got, e.want)
			}
		}
	})
	h.wait(t, one, "single-LWP counts")

	// The round trip: a writes ping and blocks reading pong; b, blocked
	// reading ping, wakes and echoes on pong. Each side writes only once
	// it has seen the other asleep, so every read blocks exactly once,
	// and a counts from one such point to the same point rounds later.
	const rounds = 50
	var a, b atomic.Pointer[sim.LWP]
	var span int64
	bDone := h.run(func(l *sim.LWP) {
		b.Store(l)
		buf := []byte{0}
		for {
			if n, err := h.pf.Read(l, ping[0], buf); n != 1 || err != nil {
				t.Errorf("echo side read = %d, %v", n, err)
				return
			}
			if buf[0] == 0 {
				return
			}
			awaitState(a.Load(), sim.LWPSleeping)
			h.pf.Write(l, pong[1], buf)
		}
	})
	aDone := h.run(func(l *sim.LWP) {
		a.Store(l)
		for b.Load() == nil {
			runtime.Gosched()
		}
		buf := []byte{1}
		var before int64
		for i := 0; ; i++ {
			awaitState(b.Load(), sim.LWPSleeping)
			if i == 0 {
				before = clk.reads.Load()
			} else if i == rounds {
				span = clk.reads.Load() - before
				break
			}
			h.pf.Write(l, ping[1], buf)
			if n, err := h.pf.Read(l, pong[0], buf); n != 1 || err != nil {
				t.Errorf("read of the echo = %d, %v", n, err)
			}
		}
		buf[0] = 0
		h.pf.Write(l, ping[1], buf)
	})
	h.wait(t, aDone, "side a")
	h.wait(t, bDone, "side b")
	if span != roundTrip*rounds {
		t.Errorf("%d round trips (2 writes + 2 blocking reads each): %d clock reads, want %d a round trip", rounds, span, roundTrip)
	}
}

// TestPollTimeoutIsAbsolute: a Poll whose condition stays false returns
// at its deadline however often its queue is woken in between. Every
// read or write on the polled pipe wakes the poll queue; a poller that
// slept its whole timeout again after each wake never timed out.
func TestPollTimeoutIsAbsolute(t *testing.T) {
	const T = 200 * time.Millisecond
	h := newHarness(1)
	stop := make(chan struct{})
	defer close(stop)
	var elapsed time.Duration
	done := h.run(func(l *sim.LWP) {
		rfd, _, _ := h.pf.Pipe(l)
		of, _ := h.pf.get(rfd)
		go func() {
			tick := time.NewTicker(T / 4)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					h.k.Wakeup(of.pipe.pollq, -1)
				}
			}
		}()
		start := h.k.Clock().Now()
		n, err := h.pf.Poll(l, []PollFD{{FD: rfd, Events: PollIn}}, T)
		elapsed = h.k.Clock().Now() - start
		if n != 0 || err != nil {
			t.Errorf("poll = %d, %v, want 0, nil", n, err)
		}
	})
	select {
	case <-done:
	case <-time.After(10 * T):
		t.Fatalf("Poll(%v) still asleep after %v", T, 10*T)
	}
	if elapsed < T || elapsed > 2*T {
		t.Errorf("Poll(%v) returned after %v, want within [T, 2T]", T, elapsed)
	}
}
