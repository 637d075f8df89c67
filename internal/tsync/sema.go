package tsync

import (
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Sema is a classic counting semaphore. Semaphores are not as
// efficient as mutex locks, but they need not be bracketed, so they
// can be used for asynchronous event notification (e.g. from signal
// handlers), and they carry state, so they can be used without an
// associated mutex (paper). The zero value is a semaphore with count
// zero.
//
// Semaphores have no strict owner, so robustness on the shared
// variant is best-effort: the most recent P-er that has not yet V'd
// is recorded, and if its process dies the sweep restores the
// consumed unit and leaves a one-shot owner-dead mark that the next
// PErr consumes. A death between a V and the next P is invisible, as
// it is in every robust-semaphore design. That P-er is also the owner
// a P blocked here waits for in the wait-for graph, which makes
// mutex-style use visible to the deadlock detector.
type Sema struct {
	header
	holder  *core.Thread // the most recent P-er without a matching V; word lock
	count   uint
	waiters waitq
}

// SemaShmSize is the number of bytes a process-shared semaphore
// occupies in mapped memory: word 0 = count, 1 = most recent holder
// (pid, tid), 2 = robust state.
const SemaShmSize = 24

func (sp *Sema) ownerLocked() (core.OwnerRef, bool) { return refOf(sp.holder) }

// Init sets the initial count (sema_init).
func (sp *Sema) Init(count uint) {
	sp.mu.Lock()
	sp.count = count
	sp.mu.Unlock()
}

// InitShared binds the semaphore to shared state at the variable —
// the USYNC_PROCESS variant — and sets the initial count
// (InitSharedCount).
func (sp *Sema) InitShared(sv *usync.Var, count uint) {
	sp.bind(sv, semaKind)
	sp.InitSharedCount(count)
}

// InitSharedCount sets a bound semaphore's count if the shared word is
// still zero and count is non-zero: the part of InitShared that acts
// on the mapped words, which a process that already holds the handle
// repeats when it names the semaphore again.
func (sp *Sema) InitSharedCount(count uint) {
	if count > 0 {
		sp.sv.Atomically(func(w usync.Words) {
			if w.Load(0) == 0 {
				w.Store(0, uint64(count))
			}
		})
	}
}

// Name returns the semaphore's identity for diagnostics.
func (sp *Sema) Name() string { return sp.nameOf(semaKind) }

// P decrements the semaphore, blocking while the count is zero
// (sema_p). A pending owner-death mark on a shared semaphore is
// absorbed silently; use PErr to observe it.
func (sp *Sema) P(t *core.Thread) {
	sp.PErr(t)
}

// PErr is P surfacing the robust protocol of shared semaphores: it
// returns ErrOwnerDead (with the unit acquired) to the first P after
// a process died between P and V — the compensating unit restored by
// the sweep may guard state that needs checking. Unshared semaphores
// always return nil.
func (sp *Sema) PErr(t *core.Thread) error { return sp.TimedP(t, 0) }

// TimedP is PErr with a deadline, returning ErrTimedOut when d
// elapses before a unit is available (sema_timedwait). d <= 0 means no
// deadline.
func (sp *Sema) TimedP(t *core.Thread, d time.Duration) error {
	if sp.sv == nil {
		return sp.pLocal(t, d)
	}
	// An untimed wait is indefinite: it counts toward SIGWAITING, so
	// the pool grows if this LWP was the last one running.
	self := ownerWord(t)
	return sp.acquireShared(t, semaKind, d, d <= 0, -1,
		func(w usync.Words) error { return sp.takeShared(w, self) },
		func(w usync.Words) bool { return w.Load(0) == 0 })
}

func (sp *Sema) pLocal(t *core.Thread, d time.Duration) error {
	clk, deadline := deadlineOf(t, d)
	var dequeue func() bool // timed waits only: an untimed P allocates nothing
	for {
		sp.mu.Lock()
		if sp.count > 0 {
			sp.count--
			sp.holder = t
			sp.mu.Unlock()
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			sp.mu.Unlock()
			return ErrTimedOut
		}
		sp.waiters.push(t)
		sp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			t.Checkpoint() // chaos: spurious wakeup, park elided
		} else {
			if d > 0 && dequeue == nil {
				dequeue = func() bool { return sp.waiters.removeUnder(&sp.mu, t) }
			}
			if block(t, sp.edge(semaKind, sp, nil, ""), false, clk, deadline, dequeue) {
				return ErrTimedOut
			}
		}
		// Mesa semantics: re-check; a barger may have taken the
		// count.
		sp.waiters.removeUnder(&sp.mu, t)
	}
}

// TryP decrements the semaphore only if no blocking is required
// (sema_tryp); it reports whether the decrement happened.
func (sp *Sema) TryP(t *core.Thread) bool {
	if sp.sv != nil {
		err := errBusy
		self := ownerWord(t)
		sp.sv.Atomically(func(w usync.Words) { err = sp.takeShared(w, self) })
		return err != errBusy // an owner-death mark is absorbed silently
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.count == 0 {
		return false
	}
	sp.count--
	sp.holder = t
	return true
}

// V increments the semaphore, unblocking one waiter (sema_v). V takes
// the posting thread for symmetry but never blocks, so it is safe in
// signal handlers; t may be nil when posting from outside any thread.
func (sp *Sema) V(t *core.Thread) {
	if sp.sv != nil {
		var self uint64
		if t != nil {
			self = ownerWord(t)
		}
		sp.sv.Atomically(func(w usync.Words) {
			w.Store(0, w.Load(0)+1)
			if self != 0 && w.Load(1) == self {
				w.Store(1, 0) // balanced P/V: no outstanding holder
			}
		})
		sp.sv.Wake(1)
		return
	}
	sp.mu.Lock()
	sp.count++
	if t != nil && sp.holder == t {
		sp.holder = nil
	}
	wake := sp.waiters.pop()
	sp.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}

// Count returns the current count (debugging aid).
func (sp *Sema) Count() uint {
	if sp.sv != nil {
		var c uint64
		sp.sv.Atomically(func(w usync.Words) { c = w.Load(0) })
		return uint(c)
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.count
}

// takeShared is the shared P on the mapped words, for P and TryP
// alike: nil or ErrOwnerDead when t took a unit, else errBusy.
func (sp *Sema) takeShared(w usync.Words, self uint64) error {
	c := w.Load(0)
	if c == 0 {
		return errBusy
	}
	w.Store(0, c-1)
	w.Store(1, self)
	if w.Load(2) == usync.RobustOwnerDead {
		// One-shot: the first P after the death observes it; later Ps
		// see a normal semaphore.
		w.Store(2, usync.RobustOK)
		return ErrOwnerDead
	}
	return nil
}
