package tsync

import (
	"sync/atomic"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Mutex is the paper's mutual exclusion lock: low overhead in space
// and time, suitable for high-frequency usage, strictly bracketing.
// The zero value is an unlocked mutex of the default variant.
//
// Every variant records its owner so the library can maintain the
// wait-for graph (deadlock detection, /proc lstatus); only the
// error-checking variant acts on it. Process-shared mutexes are
// robust: the owner's (pid, tid) lives in the mapped words, a process
// death sweeps it, and the next acquirer gets ErrOwnerDead (see
// EnterErr and MakeConsistent).
type Mutex struct {
	header
	// owner is the unshared lock itself: nil while it is free, taken
	// with CompareAndSwap(nil, t) and released with CompareAndSwap(t,
	// nil) — the test-and-set of the paper's mutex.
	owner atomic.Pointer[core.Thread]
	// adaptive is set, under the word lock, when the policy is pinned
	// adaptive: the only row whose owner releases with a swap.
	adaptive atomic.Bool
	// fast says the word lock has nothing to do for an uncontended
	// acquisition or release: the policy is pinned adaptive, no waiter
	// is queued and the turnstile is unlinked. While it is set, Enter
	// and TryEnter are one swap of owner, and the owner's Exit ends at
	// its swap. It is stored only under the word lock: set by
	// refastLocked, cleared by a waiter before its last probe of owner.
	// A swap that finds it clear afterwards finishes under the word
	// lock (takeFast, exitLocal).
	fast    atomic.Bool
	variant Variant
	waiters waitq
	ts      core.Turnstile // priority-inheritance anchor (local only)

	// policy is the lock/wake policy: as configured (InitPolicy) until
	// the first Enter or Exit resolves it to a concrete one and sets
	// pinned, so the waiter-queue discipline never changes mid-life.
	// releases counts Exits for the periodic hand-off. All under the
	// word lock; see policy.go.
	policy   Policy
	pinned   bool
	releases uint64
}

// MutexShmSize is the number of bytes a process-shared mutex occupies
// in mapped memory: word 0 = lock state, 1 = waiter count, 2 = owner
// (pid, tid), 3 = robust state.
const MutexShmSize = 32

// Init selects the implementation variant (mutex_init). Calling Init
// on a held mutex is a programming error the library does not check
// for, as in the original.
func (mp *Mutex) Init(v Variant) { mp.variant = v }

// InitPolicy sets this lock's lock/wake policy (see Policy), overriding
// the process default. Like Init, it must be called before first use:
// the first Enter or Exit fixes the policy for good.
func (mp *Mutex) InitPolicy(p Policy) {
	if p != PolicyDefault {
		p = p.concrete()
	}
	mp.mu.Lock()
	if !mp.pinned {
		mp.policy = p
	}
	mp.mu.Unlock()
}

// LockPolicy reports the lock's policy: the resolved one once the
// mutex has been used, the configured one before that — the /proc
// lstatus POLICY column.
func (mp *Mutex) LockPolicy() string {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.policy.String()
}

// InitShared binds the mutex to shared state at (obj, off) resolved
// through reg — the USYNC_PROCESS variant. Threads in any process
// that binds a Mutex to the same identity contend on the same lock.
func (mp *Mutex) InitShared(sv *usync.Var) { mp.bind(sv, mutexKind) }

// Name returns the lock's identity for diagnostics: the shared
// variable's system-wide name, or a lazily assigned "mutex#N".
func (mp *Mutex) Name() string { return mp.nameOf(mutexKind) }

// Enter acquires the lock, blocking if it is already held
// (mutex_enter). On an error-check mutex a lock-time deadlock panics,
// as the paper's debugging variant did; an owner-dead shared lock is
// recovered transparently (use EnterErr for the robust protocol).
func (mp *Mutex) Enter(t *core.Thread) {
	switch err := mp.EnterErr(t); err {
	case nil:
	case ErrOwnerDead:
		mp.MakeConsistent(t)
	case ErrDeadlock:
		panic("tsync: recursive mutex_enter (self-deadlock) detected by error-check mutex")
	case ErrNotRecoverable:
		panic("tsync: mutex_enter of a not-recoverable shared lock")
	}
}

// EnterErr acquires the lock like Enter but reports exceptional
// acquisitions instead of panicking or recovering silently:
//
//   - ErrDeadlock (error-check variant): the calling thread already
//     owns the lock, or parking would close a wait-for cycle. The
//     lock is not acquired and the thread did not park.
//   - ErrOwnerDead (shared): a process died holding the lock. The
//     caller HOLDS the lock and must repair the protected state and
//     call MakeConsistent before Exit; releasing without it makes
//     the lock permanently ErrNotRecoverable.
//   - ErrNotRecoverable (shared): the lock is dead forever.
func (mp *Mutex) EnterErr(t *core.Thread) error { return mp.TimedEnter(t, 0) }

// TimedEnter is EnterErr with a deadline: it gives up and returns
// ErrTimedOut if the lock cannot be acquired within d (cf.
// Cond.TimedWait). d <= 0 means no deadline.
func (mp *Mutex) TimedEnter(t *core.Thread, d time.Duration) error {
	if mp.sv == nil {
		if mp.fast.Load() && mp.takeFast(t) {
			return nil
		}
		return mp.enterLocal(t, d)
	}
	// The sleep breaks on release, on the owner-death sweep (which
	// clears the lock word), and on NOTRECOVERABLE. It is not
	// indefinite: see DESIGN.md "Which waits are indefinite".
	self := ownerWord(t)
	return mp.acquireShared(t, mutexKind, d, false, 1,
		func(w usync.Words) error { return mp.takeShared(w, self) },
		func(w usync.Words) bool { return w.Load(0) != 0 && w.Load(3) != usync.RobustNotRecoverable })
}

// MakeConsistent marks an owner-dead shared lock consistent again
// (pthread_mutex_consistent). Only the thread currently holding the
// lock after an ErrOwnerDead acquisition may call it; reports whether
// the mark was cleared. Unshared mutexes have no robust state.
func (mp *Mutex) MakeConsistent(t *core.Thread) bool {
	if mp.sv == nil {
		return false
	}
	self := ownerWord(t)
	ok := false
	mp.sv.Atomically(func(w usync.Words) {
		if w.Load(3) == usync.RobustOwnerDead && w.Load(0) != 0 && w.Load(2) == self {
			w.Store(3, usync.RobustOK)
			ok = true
		}
	})
	return ok
}

// TryEnter acquires the lock only if that requires no blocking
// (mutex_tryenter); it reports whether the lock was taken. The paper
// notes it can be used to avoid deadlock in lock-hierarchy
// violations. An owner-dead shared lock is taken and recovered
// transparently; a not-recoverable one is never taken.
func (mp *Mutex) TryEnter(t *core.Thread) bool {
	if mp.sv != nil {
		var err error
		self := ownerWord(t)
		mp.sv.Atomically(func(w usync.Words) {
			if err = mp.takeShared(w, self); err == ErrOwnerDead {
				w.Store(3, usync.RobustOK) // transparent recovery
				err = nil
			}
		})
		return err == nil
	}
	if mp.fast.Load() {
		return mp.takeFast(t)
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.takeLocked(t, false) == nil
}

// Exit releases the lock (mutex_exit): the policy either wakes the
// best waiter into an open re-acquisition race (barging: adaptive,
// parkinglot) or transfers ownership directly to the oldest waiter
// (hand-off: ticket, queue).
func (mp *Mutex) Exit(t *core.Thread) {
	if mp.sv != nil {
		mp.exitShared(t)
		return
	}
	mp.exitLocal(t)
}

// --- process-shared implementation --------------------------------------

// takeShared is the shared acquisition on the mapped words, for Enter
// and TryEnter alike: nil or ErrOwnerDead when t took the lock, else
// why it did not.
func (mp *Mutex) takeShared(w usync.Words, self uint64) error {
	switch {
	case w.Load(3) == usync.RobustNotRecoverable:
		return ErrNotRecoverable
	case w.Load(0) != 0:
		if w.Load(2) == self && mp.variant == VariantErrorCheck {
			return ErrDeadlock
		}
		return errBusy
	}
	w.Store(0, 1)
	w.Store(2, self)
	if w.Load(3) == usync.RobustOwnerDead {
		return ErrOwnerDead
	}
	return nil
}

func (mp *Mutex) exitShared(t *core.Thread) {
	self := ownerWord(t)
	var hadWaiters, wakeAll, bad bool
	mp.sv.Atomically(func(w usync.Words) {
		if mp.variant == VariantErrorCheck && (w.Load(0) == 0 || w.Load(2) != self) {
			bad = true
			return
		}
		if w.Load(3) == usync.RobustOwnerDead && w.Load(2) == self {
			// Released while still inconsistent: nobody can ever
			// trust the protected state again (ENOTRECOVERABLE).
			// All sleepers wake and fail their acquisitions.
			w.Store(3, usync.RobustNotRecoverable)
			wakeAll = true
		}
		w.Store(0, 0)
		w.Store(2, 0)
		hadWaiters = w.Load(1) > 0
	})
	if bad {
		panic("tsync: mutex_exit of a lock not held by the thread")
	}
	if wakeAll {
		mp.sv.Wake(-1)
	} else if hadWaiters {
		mp.sv.Wake(1)
	}
}
