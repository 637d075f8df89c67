package vfs

import (
	"time"

	"sunosmt/internal/sim"
)

// PollEvents is a bitmask of poll conditions.
type PollEvents int

// Poll event bits.
const (
	PollIn PollEvents = 1 << iota
	PollOut
	PollHup
	PollErr
)

// PollFD is one entry in a Poll request, like struct pollfd.
type PollFD struct {
	FD      int
	Events  PollEvents
	Revents PollEvents
}

// Poll waits until one of the requested descriptors is ready, the
// timeout expires (timeout > 0), or a signal interrupts the wait.
// The wait is *indefinite* in the paper's sense — poll is its example
// of a wait that should trigger SIGWAITING when every LWP is stuck in
// one. Returns the number of ready descriptors (0 on timeout).
func (pf *ProcFiles) Poll(l *sim.LWP, fds []PollFD, timeout time.Duration) (int, error) {
	k := pf.fs.kern
	now := k.SyscallEnter(l)
	defer k.SyscallExit(l)

	// deadline is absolute on the kernel clock, from the entry's one
	// reading: a wake that leaves nothing ready sleeps for what remains,
	// measured from the reading the sleep woke on (SleepIf's last
	// result), not from another one.
	deadline := time.Duration(-1)
	if timeout > 0 {
		deadline = now + timeout
	}
	for {
		// first is the first pipe polled and want what was asked of it;
		// the wait below is on that pipe.
		var (
			ready, npipes int
			first         *Pipe
			want          PollEvents
		)
		for i := range fds {
			of, err := pf.get(fds[i].FD)
			switch {
			case err != nil:
				fds[i].Revents = PollErr
			case of.pipe != nil:
				if npipes++; first == nil {
					first, want = of.pipe, fds[i].Events
				}
				fds[i].Revents = of.pipe.poll(fds[i].Events)
			default:
				// Regular files are always ready.
				fds[i].Revents = fds[i].Events & (PollIn | PollOut)
			}
			if fds[i].Revents != 0 {
				ready++
			}
		}
		if ready > 0 {
			return ready, nil
		}
		if first == nil {
			// Nothing can ever become ready; treat as timeout
			// semantics with no wait channel.
			return 0, ErrInval
		}
		// Block on the first pipe's poll queue; every state change on a
		// pipe wakes its pollers. The sleep commits under the kernel lock
		// only if that pipe still has nothing asked for (k.mu → p.mu, as
		// in Pipe.read), which makes a single-pipe poll race-free. A
		// multi-pipe poll still hears nothing from the other pipes, so
		// each of its sleeps lasts at most 1 ms, deadline or not, and it
		// re-checks them all: queueing on every pollq at once waits for
		// the kernel-wake rewrite (ROADMAP 2b). A timed-out sleep re-scans
		// too, and returns 0 only with nothing ready and the deadline
		// gone.
		opts := sim.SleepOpts{Interruptible: true, Indefinite: true}
		if deadline >= 0 {
			if opts.Timeout = deadline - now; opts.Timeout <= 0 {
				return 0, nil
			}
		}
		if npipes > 1 && (opts.Timeout == 0 || opts.Timeout > time.Millisecond) {
			opts.Timeout = time.Millisecond
		}
		var res sim.WakeResult
		res, _, now = k.SleepIf(l, first.pollq, func() bool { return first.poll(want) == 0 }, opts)
		if res == sim.WakeInterrupted {
			return 0, sim.ErrIntr
		}
	}
}
