package sim

import (
	"fmt"
	"time"
)

// This file implements the paper's "Time, interval timers, and
// profiling" section: one real-time interval timer per process
// (SIGALRM), and two private interval timers per LWP — one that
// decrements in LWP user time (SIGVTALRM) and one that decrements in
// both user and system time (SIGPROF). Profiling is enabled per LWP,
// with optionally shared buffers.

// itimer is an interval timer. For virtual timers, remaining is
// decremented as the kernel charges CPU time; for the real timer, a
// clock timer fires.
type itimer struct {
	remaining time.Duration
	interval  time.Duration // reload value; 0 = one-shot
	sig       Signal
	realTimer interface{ Stop() bool } // real-time timers only
}

// decrement charges d against a virtual timer and posts its signal on
// expiry. Caller holds k.mu.
func (t *itimer) decrement(k *Kernel, l *LWP, d, now time.Duration) {
	if t.remaining <= 0 {
		return
	}
	t.remaining -= d
	if t.remaining > 0 {
		return
	}
	k.postSignalLocked(l.proc, t.sig, l, now)
	if t.interval > 0 {
		for t.remaining <= 0 {
			t.remaining += t.interval
		}
	} else {
		t.remaining = 0
	}
}

// Which selects an interval timer, as with setitimer(2).
type Which int

// Timer selectors.
const (
	// ITimerReal counts down in wall time and delivers SIGALRM to
	// the process. There is only one per process.
	ITimerReal Which = iota
	// ITimerVirtual counts down in LWP user time and delivers
	// SIGVTALRM to the LWP that owns it.
	ITimerVirtual
	// ITimerProf counts down in LWP user+system time and delivers
	// SIGPROF to the LWP that owns it.
	ITimerProf
)

// Setitimer arms (or with value 0 disarms) an interval timer. For
// ITimerReal, l identifies the calling LWP's process; for the virtual
// and profiling timers the timer belongs to l itself and is
// inherited-from-nothing (each LWP arms its own).
func (k *Kernel) Setitimer(l *LWP, which Which, value, interval time.Duration) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.settleLocked(l) // time before the call is not the new timer's
	l.slow.Store(true)
	p := l.proc
	switch which {
	case ITimerReal:
		if p.rtimer != nil && p.rtimer.realTimer != nil {
			p.rtimer.realTimer.Stop()
			p.rtimer = nil
		}
		if value <= 0 {
			return nil
		}
		t := &itimer{remaining: value, interval: interval, sig: SIGALRM}
		p.rtimer = t
		k.armRealLocked(p, t, value)
	case ITimerVirtual:
		if value <= 0 {
			l.vtimer = nil
			return nil
		}
		l.vtimer = &itimer{remaining: value, interval: interval, sig: SIGVTALRM}
	case ITimerProf:
		if value <= 0 {
			l.ptimer = nil
			return nil
		}
		l.ptimer = &itimer{remaining: value, interval: interval, sig: SIGPROF}
	default:
		return fmt.Errorf("sim: bad itimer selector %d", which)
	}
	return nil
}

func (k *Kernel) armRealLocked(p *Process, t *itimer, d time.Duration) {
	t.realTimer = k.clock.AfterFunc(d, func() {
		k.mu.Lock()
		defer k.mu.Unlock()
		if p.rtimer != t {
			return // disarmed or replaced
		}
		k.postSignalLocked(p, SIGALRM, nil, k.rings.Now())
		if t.interval > 0 {
			k.armRealLocked(p, t, t.interval)
		} else {
			p.rtimer = nil
		}
	})
}

// SetProfiling points the LWP's profiling at buf (nil disables) —
// paper: "Each LWP can set up a separate profiling buffer, but it may
// also share one if accumulated information is desired."
func (k *Kernel) SetProfiling(l *LWP, buf *ProfBuffer) {
	k.mu.Lock()
	k.settleLocked(l)
	l.prof = buf
	l.slow.Store(true)
	k.mu.Unlock()
}

// SetProfLabel labels the LWP's current activity for profiling
// attribution (the reproduction's stand-in for PC sampling).
func (k *Kernel) SetProfLabel(l *LWP, label string) {
	k.mu.Lock()
	k.chargeAtLocked(l, k.clock.Now()) // charge the old label up to now
	l.profLabel = label
	k.mu.Unlock()
}

// SleepFor blocks the LWP for d, like a nanosleep(2) system call:
// interruptible, but not an indefinite wait (it has a known bound).
func (k *Kernel) SleepFor(l *LWP, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	if res, _ := k.SleepIf(l, &k.sleepq, nil, SleepOpts{Interruptible: true, Timeout: d}); res == WakeInterrupted {
		return ErrIntr
	}
	return nil
}
