package core

import (
	"fmt"
	"time"
)

// Microstate accounting, after Solaris's per-LWP microstates: every
// thread accumulates virtual-clock time in the state it is in, charged
// at the transition points the scheduler already passes through
// (create, enqueue, dispatch, park, unpark, stop, retire). Each
// transition reads the clock once and charges the elapsed interval to
// the outgoing state, so the per-state times telescope: they always
// sum exactly to the thread's lifetime, with no sampling error.

// Microstate is one per-thread accounting state.
type Microstate int

// Thread microstates.
const (
	// MSUser: on an LWP executing — user code and the kernel calls
	// made on its behalf. (A bound thread blocked inside a kernel
	// call stays MSUser at thread level; its LWP's microstates show
	// the kernel-side breakdown.)
	MSUser Microstate = iota
	// MSRunq: runnable, waiting on the run queue for an LWP — the
	// user-level dispatch latency.
	MSRunq
	// MSSleep: parked waiting for an event (condition wait,
	// thread_wait, stop-waiters).
	MSSleep
	// MSLock: parked on a contended synchronization object (the
	// thread published a wait-for edge before parking).
	MSLock
	// MSStopped: stopped by thread_stop or THREAD_STOP.
	MSStopped
	// NumMicrostates sizes accumulator arrays.
	NumMicrostates
)

// String implements fmt.Stringer.
func (ms Microstate) String() string {
	switch ms {
	case MSUser:
		return "user"
	case MSRunq:
		return "runq"
	case MSSleep:
		return "sleep"
	case MSLock:
		return "lock"
	case MSStopped:
		return "stopped"
	}
	return fmt.Sprintf("Microstate(%d)", int(ms))
}

// MicrostateTimes is a snapshot of one thread's accumulated state
// times. User+Runq+Sleep+Lock+Stopped always equals Total exactly.
type MicrostateTimes struct {
	User    time.Duration // on an LWP, executing
	Runq    time.Duration // waiting for an LWP
	Sleep   time.Duration // waiting for an event
	Lock    time.Duration // blocked on a synchronization object
	Stopped time.Duration // stopped
	Total   time.Duration // lifetime on the virtual clock
	State   Microstate    // state at snapshot time
	Dead    bool          // thread has retired; times are final
}

// Sum returns the sum of the per-state times (== Total).
func (mt MicrostateTimes) Sum() time.Duration {
	return mt.User + mt.Runq + mt.Sleep + mt.Lock + mt.Stopped
}

// msInitLocked starts accounting for a newborn thread. Requires m.mu.
func (t *Thread) msInitLocked(now time.Duration, st Microstate) {
	a := t.auxb()
	a.msBorn, a.msMark, a.msState = now, now, st
}

// msSwitchLocked charges the interval since the last transition to
// the outgoing state and enters st. Requires m.mu; the caller reads
// the clock once per transition and passes it in.
func (t *Thread) msSwitchLocked(now time.Duration, st Microstate) {
	a := t.aux
	a.msAcc[a.msState] += now - a.msMark
	a.msMark = now
	a.msState = st
}

// msFinalLocked closes accounting at thread death. Requires m.mu.
func (t *Thread) msFinalLocked(now time.Duration) {
	a := t.aux
	a.msAcc[a.msState] += now - a.msMark
	a.msMark = now
}

// msParkState maps the library state a thread parks in onto its
// microstate: a published wait-for edge marks the park as
// blocked-on-lock rather than a plain event sleep.
func (t *Thread) msParkState(st ThreadState) Microstate {
	if st == ThreadStopped {
		return MSStopped
	}
	if st == ThreadSleeping && t.blocked.Load() != nil {
		return MSLock
	}
	return MSSleep
}

// Microstates snapshots the thread's microstate accounting. For a
// live thread the open interval is charged up to now; for a retired
// thread the times are final. In both cases Sum() == Total.
func (t *Thread) Microstates() MicrostateTimes {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	a := t.aux
	if a == nil {
		return MicrostateTimes{Dead: t.state == ThreadZombie}
	}
	acc := a.msAcc
	dead := t.state == ThreadZombie
	now := a.msMark
	if !dead {
		if clk := m.kern.Clock().Now(); clk > now {
			now = clk
		}
		acc[a.msState] += now - a.msMark
	}
	return MicrostateTimes{
		User:    acc[MSUser],
		Runq:    acc[MSRunq],
		Sleep:   acc[MSSleep],
		Lock:    acc[MSLock],
		Stopped: acc[MSStopped],
		Total:   now - a.msBorn,
		State:   a.msState,
		Dead:    dead,
	}
}
