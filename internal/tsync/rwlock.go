package tsync

import (
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// RWType selects reader or writer acquisition for RWLock.Enter.
type RWType int

// rw_enter types.
const (
	// RWReader acquires a readers lock: many simultaneous holders.
	RWReader RWType = iota
	// RWWriter acquires the writer lock: exclusive.
	RWWriter
)

// RWLock is the paper's multiple-readers, single-writer lock: a good
// fit for an object searched more frequently than it is changed.
// Writers are preferred: a waiting writer blocks new readers, which
// prevents writer starvation. The zero value is an unheld lock.
//
// Process-shared locks are robust for writers: a process that dies
// holding the writer lock (or an unresolved owner-dead claim) is
// swept, and the next acquirer — in either mode — gets ErrOwnerDead
// and holds a claim until MakeConsistent. Reader deaths are not
// tracked (readers leave no owner word), matching the POSIX robust
// model, which covers only exclusive ownership.
type RWLock struct {
	header    // owner: the writer (readers are anonymous)
	readers   int
	writer    bool
	wwaiting  int // writers waiting
	upgrading bool
	rq        waitq          // blocked readers
	wq        waitq          // blocked writers
	ts        core.Turnstile // priority-inheritance anchor (writer owner)
}

// RWShmSize is the number of bytes a process-shared readers/writer
// lock occupies in mapped memory: word 0 = readers, 1 = writer flag,
// 2 = waiting writers, 3 = upgrade in progress, 4 = owner (pid, tid) of
// the writer or of the owner-dead claimant, 5 = robust state.
const RWShmSize = 48

// InitShared binds the lock to shared state — the USYNC_PROCESS
// variant (rw_init with THREAD_SYNC_SHARED).
func (rw *RWLock) InitShared(sv *usync.Var) { rw.bind(sv, rwKind) }

// Name returns the lock's identity for diagnostics.
func (rw *RWLock) Name() string { return rw.nameOf(rwKind) }

// Enter acquires a readers or writer lock (rw_enter), blocking as
// needed. An owner-dead shared lock is recovered transparently (use
// EnterErr for the robust protocol).
func (rw *RWLock) Enter(t *core.Thread, typ RWType) {
	switch err := rw.EnterErr(t, typ); err {
	case nil:
	case ErrOwnerDead:
		rw.MakeConsistent(t)
	case ErrNotRecoverable:
		panic("tsync: rw_enter of a not-recoverable shared lock")
	}
}

// EnterErr acquires like Enter but surfaces the robust protocol on
// shared locks: ErrOwnerDead means the caller holds the requested
// mode plus the recovery claim (other acquirers wait until
// MakeConsistent or a claim-dropping Exit, which poisons the lock
// with ErrNotRecoverable). Unshared locks always return nil.
func (rw *RWLock) EnterErr(t *core.Thread, typ RWType) error { return rw.enter(t, typ, 0) }

// TimedRdLock acquires a readers lock with a deadline, returning
// ErrTimedOut when d elapses first (cf. Cond.TimedWait).
func (rw *RWLock) TimedRdLock(t *core.Thread, d time.Duration) error {
	return rw.enter(t, RWReader, d)
}

// TimedWrLock acquires the writer lock with a deadline, returning
// ErrTimedOut when d elapses first.
func (rw *RWLock) TimedWrLock(t *core.Thread, d time.Duration) error {
	return rw.enter(t, RWWriter, d)
}

// enter acquires through the shared or the unshared path; d > 0 bounds
// the wait.
func (rw *RWLock) enter(t *core.Thread, typ RWType, d time.Duration) error {
	if rw.sv == nil {
		return rw.enterLocal(t, typ, d)
	}
	// A writer counts itself in word 2 while it waits (the
	// writer-preference gate readers wait behind) and waits out the
	// readers, word 0; a reader waits out the waiting writers. An
	// untimed wait is indefinite, as Sema.P's.
	counter, other := -1, 2
	if typ == RWWriter {
		counter, other = 2, 0
	}
	self := ownerWord(t)
	return rw.acquireShared(t, rwKind, d, d <= 0, counter,
		func(w usync.Words) error { return rw.takeShared(w, typ, self) },
		func(w usync.Words) bool {
			switch w.Load(5) {
			case usync.RobustNotRecoverable, usync.RobustOwnerDead:
				return false // wake: the robust state must be acted on
			case usync.RobustClaimed:
				return true // claim pending: keep waiting
			}
			return w.Load(1) != 0 || w.Load(other) != 0
		})
}

// MakeConsistent resolves an ErrOwnerDead claim held by the calling
// thread: the lock returns to normal service in the claimed mode.
// Reports whether a claim was resolved.
func (rw *RWLock) MakeConsistent(t *core.Thread) bool {
	if rw.sv == nil {
		return false
	}
	self := ownerWord(t)
	ok := false
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) == usync.RobustClaimed && w.Load(4) == self {
			w.Store(5, usync.RobustOK)
			if w.Load(1) == 0 {
				w.Store(4, 0) // reader claim: readers are anonymous again
			}
			ok = true
		}
	})
	if ok {
		rw.sv.Wake(-1) // claim resolved: everyone re-contends
	}
	return ok
}

// enterLocal acquires the unshared lock; d > 0 bounds the wait.
func (rw *RWLock) enterLocal(t *core.Thread, typ RWType, d time.Duration) error {
	clk, deadline := deadlineOf(t, d)
	var dequeue func() bool // timed waits only
	for {
		rw.mu.Lock()
		if rw.tryLocked(t, typ) {
			rw.mu.Unlock()
			return nil
		}
		if d > 0 && clk.Now() >= deadline {
			rw.mu.Unlock()
			return ErrTimedOut
		}
		if rw.writer {
			rw.ts.Contend(rw.owner) // before queueing: the writer now answers for us
		}
		if typ == RWWriter {
			rw.wwaiting++
			rw.ts.SetQueue(rw.wq.chanOf())
			rw.wq.push(t)
		} else {
			rw.ts.SetQueue2(rw.rq.chanOf())
			rw.rq.push(t)
		}
		rw.mu.Unlock()
		timedOut := false
		if chaosOf(t).SpuriousWakeup() {
			t.Checkpoint() // chaos: spurious wakeup, park elided
		} else {
			if d > 0 && dequeue == nil {
				q := &rw.rq
				if typ == RWWriter {
					q = &rw.wq
				}
				dequeue = func() bool { return q.removeUnder(&rw.mu, t) }
			}
			// Willing priority boosts the writer holding us out.
			timedOut = block(t, rw.edge(rwKind, &rw.ts, ""), true, clk, deadline, dequeue)
		}
		rw.mu.Lock()
		if typ == RWWriter {
			if rw.wq.remove(t) {
				// Still queued: the wake was spurious; our
				// wwaiting contribution stands until we
				// re-queue, so drop it now.
			}
			rw.wwaiting--
		} else {
			rw.rq.remove(t)
		}
		rw.mu.Unlock()
		if timedOut {
			return ErrTimedOut
		}
	}
}

// tryLocked attempts the acquisition; caller holds rw.mu. Readers are
// admitted only when no writer holds or awaits the lock (writer
// preference).
func (rw *RWLock) tryLocked(t *core.Thread, typ RWType) bool {
	if typ == RWWriter {
		if rw.writer || rw.readers > 0 {
			return false
		}
		rw.takeWriterLocked(t)
		return true
	}
	if rw.writer || rw.wwaiting > 0 {
		return false
	}
	rw.readers++
	return true
}

// TryEnter acquires the lock only if no blocking is required
// (rw_tryenter). A shared lock with a pending or unresolved owner
// death is never taken by TryEnter — recovery needs EnterErr.
func (rw *RWLock) TryEnter(t *core.Thread, typ RWType) bool {
	if rw.sv != nil {
		err := errBusy
		self := ownerWord(t)
		rw.sv.Atomically(func(w usync.Words) {
			if w.Load(5) == usync.RobustOK {
				err = rw.takeShared(w, typ, self)
			}
		})
		return err == nil
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.tryLocked(t, typ)
}

// Exit releases a readers or writer lock (rw_exit). Releasing an
// unresolved ErrOwnerDead claim poisons the shared lock
// (ErrNotRecoverable) — callers must MakeConsistent first.
func (rw *RWLock) Exit(t *core.Thread) {
	if rw.sv != nil {
		rw.exitShared(t)
		return
	}
	var wakeOne *core.Thread
	var wakeAll []*core.Thread
	rw.mu.Lock()
	switch {
	case rw.writer:
		rw.writer = false
		rw.owner = nil
		rw.ts.Released(t) // shed any boost willed by blocked acquirers
	case rw.readers > 0:
		rw.readers--
	default:
		rw.mu.Unlock()
		panic("tsync: rw_exit of an unheld lock")
	}
	if rw.readers == 0 && !rw.writer {
		if rw.wq.len() > 0 {
			wakeOne = rw.wq.pop()
		} else {
			wakeAll = rw.rq.popAll()
		}
	}
	rw.mu.Unlock()
	if wakeOne != nil {
		wakeOne.Unpark()
	}
	core.UnparkAll(wakeAll) // readers wake in one scheduler-lock pass
}

// Downgrade atomically converts a writer lock into a readers lock
// (rw_downgrade). Any waiting writers remain waiting; if there are
// none, pending readers are woken (paper).
func (rw *RWLock) Downgrade(t *core.Thread) {
	if rw.sv != nil {
		rw.downgradeShared()
		return
	}
	var wakeAll []*core.Thread
	rw.mu.Lock()
	if !rw.writer {
		rw.mu.Unlock()
		panic("tsync: rw_downgrade without the writer lock")
	}
	rw.writer = false
	rw.owner = nil
	rw.ts.Released(t) // readers hold no turnstile
	rw.readers = 1
	if rw.wwaiting == 0 {
		wakeAll = rw.rq.popAll()
	}
	rw.mu.Unlock()
	core.UnparkAll(wakeAll)
}

// TryUpgrade attempts to atomically convert a readers lock into a
// writer lock (rw_tryupgrade). It fails if another upgrade is in
// progress, writers are waiting (paper), or other readers hold the
// lock.
func (rw *RWLock) TryUpgrade(t *core.Thread) bool {
	if rw.sv != nil {
		return rw.tryUpgradeShared(t)
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.upgrading || rw.wwaiting > 0 || rw.writer || rw.readers != 1 {
		return false
	}
	rw.readers = 0
	rw.takeWriterLocked(t)
	return true
}

// takeWriterLocked makes t the writer. Like Mutex.takeLocked, it links
// the turnstile only when t goes past queued readers or writers; rw.mu
// is held.
func (rw *RWLock) takeWriterLocked(t *core.Thread) {
	rw.writer = true
	rw.owner = t
	if rw.wq.len() > 0 || rw.rq.len() > 0 {
		rw.ts.Contend(t)
	}
}

// Holders reports (readers, writerHeld) for debugging.
func (rw *RWLock) Holders() (int, bool) {
	if rw.sv != nil {
		var r int
		var w bool
		rw.sv.Atomically(func(ws usync.Words) {
			r = int(ws.Load(0))
			w = ws.Load(1) != 0
		})
		return r, w
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.readers, rw.writer
}

// --- process-shared implementation --------------------------------------

// takeShared is the shared acquisition on the mapped words, for enter
// and TryEnter alike: nil or ErrOwnerDead when t took the lock, else why
// it did not.
func (rw *RWLock) takeShared(w usync.Words, typ RWType, self uint64) error {
	switch w.Load(5) {
	case usync.RobustNotRecoverable:
		return ErrNotRecoverable
	case usync.RobustOwnerDead:
		// First acquirer after an owner death claims the lock in the
		// requested mode, bypassing the writer-preference gate:
		// recovery must not wait behind ordinary contention.
		if typ == RWWriter {
			w.Store(1, 1)
		} else {
			w.Store(0, w.Load(0)+1)
		}
		w.Store(4, self)
		w.Store(5, usync.RobustClaimed)
		return ErrOwnerDead
	case usync.RobustClaimed:
		return errBusy // wait for the claim to resolve
	}
	readers, writer := w.Load(0), w.Load(1)
	if typ == RWWriter {
		if writer != 0 || readers != 0 {
			return errBusy
		}
		w.Store(1, 1)
		w.Store(4, self)
	} else {
		if writer != 0 || w.Load(2) != 0 {
			return errBusy
		}
		w.Store(0, readers+1)
	}
	return nil
}

func (rw *RWLock) exitShared(t *core.Thread) {
	self := ownerWord(t)
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) == usync.RobustClaimed && w.Load(4) == self {
			// The claimant released without MakeConsistent: the
			// protected state is unrecoverable, forever.
			w.Store(0, 0)
			w.Store(1, 0)
			w.Store(4, 0)
			w.Store(5, usync.RobustNotRecoverable)
			return
		}
		if w.Load(1) != 0 {
			w.Store(1, 0)
			w.Store(4, 0)
		} else if r := w.Load(0); r > 0 {
			w.Store(0, r-1)
		}
	})
	rw.sv.Wake(-1) // writers and readers re-contend; shared variant keeps one queue
}

func (rw *RWLock) downgradeShared() {
	rw.sv.Atomically(func(w usync.Words) {
		w.Store(1, 0)
		w.Store(0, 1)
		if w.Load(5) != usync.RobustClaimed {
			w.Store(4, 0) // claimants keep their claim across downgrade
		}
	})
	rw.sv.Wake(-1)
}

func (rw *RWLock) tryUpgradeShared(t *core.Thread) bool {
	self := ownerWord(t)
	ok := false
	rw.sv.Atomically(func(w usync.Words) {
		if w.Load(5) != usync.RobustOK {
			return
		}
		if w.Load(3) == 0 && w.Load(2) == 0 && w.Load(1) == 0 && w.Load(0) == 1 {
			w.Store(0, 0)
			w.Store(1, 1)
			w.Store(4, self)
			ok = true
		}
	})
	return ok
}
