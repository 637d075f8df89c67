package tsync

import (
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/ktime"
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
	mu      sync.Mutex   // word lock; models the atomic instructions
	owner   *core.Thread // nil: the lock is free
	variant Variant
	waiters waitq
	ts      core.Turnstile                 // priority-inheritance anchor (local only)
	name    string                         // lazily assigned; identifies the lock in lstatus
	bi      atomic.Pointer[core.BlockInfo] // cached wait-for edge; see blockInfo

	// policy is the lock/wake policy: as configured (InitPolicy) until
	// the first Enter or Exit resolves it to a concrete one and sets
	// pinned, so the waiter-queue discipline never changes mid-life.
	// releases counts Exits for the periodic hand-off. All under the
	// word lock; see policy.go.
	policy   Policy
	pinned   bool
	releases uint64

	// sv, when non-nil, makes this a process-shared mutex whose
	// state lives in mapped memory at the variable's offset:
	// word 0 = lock state, word 1 = waiter count, word 2 = owner
	// (pid, tid), word 3 = robust state.
	sv *usync.Var
}

// MutexShmSize is the number of bytes a process-shared mutex occupies
// in mapped memory.
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
func (mp *Mutex) InitShared(sv *usync.Var) {
	mp.mu.Lock()
	mp.sv = sv
	mp.bi.Store(nil) // the name changed
	mp.mu.Unlock()
	sv.Declare(usync.KindMutex)
}

// Name returns the lock's identity for diagnostics: the shared
// variable's system-wide name, or a lazily assigned "mutex#N".
func (mp *Mutex) Name() string {
	if mp.sv != nil {
		return mp.sv.Name()
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.nameLocked()
}

func (mp *Mutex) nameLocked() string {
	if mp.sv != nil {
		return mp.sv.Name()
	}
	if mp.name == "" {
		mp.name = autoName("mutex")
	}
	return mp.name
}

// blockInfo is the wait-for edge published while parked on this
// mutex. The owner resolves at walk time, never under the caller's
// locks. The edge is immutable, so it is built once and shared by
// every waiter — blocking allocates nothing (see edgeOf). The policy
// it names is settled by then: the waiter's Enter pinned it before
// blocking.
func (mp *Mutex) blockInfo() *core.BlockInfo {
	return edgeOf(&mp.bi, &mp.mu, func() *core.BlockInfo {
		bi := &core.BlockInfo{Kind: "mutex", Name: mp.nameLocked(), Owner: mp.ownerRef}
		if mp.sv == nil {
			bi.Ts = &mp.ts
			bi.Policy = mp.policy.String()
		}
		return bi
	})
}

// ownerRef resolves the mutex's owner for the wait-for graph. A graph
// walker can still be resolving an edge cached before InitShared, so
// sv is read under the word lock InitShared publishes it under; and
// the owner is identified there too, while it still is the owner — a
// thread that has released may exit and have its Thread recycled.
func (mp *Mutex) ownerRef() (core.OwnerRef, bool) {
	mp.mu.Lock()
	sv := mp.sv
	ref, ok := localOwnerRef(mp.owner)
	mp.mu.Unlock()
	if sv != nil {
		return sharedOwnerRef(sv, 2)
	}
	return ref, ok
}

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
	if mp.sv != nil {
		return mp.enterShared(t, d)
	}
	return mp.enterLocal(t, d)
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

// parkTimed parks t with a deadline. dequeue must atomically remove t
// from the primitive's wait queue and report whether it was still
// queued; when the timer wins that race the park is cut short and
// parkTimed reports true (timed out). A racing real wake keeps its
// normal meaning: the thread was popped by the waker, the timer's
// dequeue fails, and parkTimed reports false.
func parkTimed(t *core.Thread, clk ktime.Clock, deadline time.Duration, dequeue func() bool) bool {
	rem := deadline - clk.Now()
	if rem <= 0 {
		if dequeue() {
			return true
		}
		// Already woken for real: consume the wake.
		t.Park()
		return false
	}
	fired := make(chan struct{})
	timer := clk.AfterFunc(rem, func() {
		if dequeue() {
			close(fired)
			t.Unpark()
		}
	})
	t.Park()
	timer.Stop()
	select {
	case <-fired:
		return true
	default:
		return false
	}
}

// block is the park tail of every unshared primitive's wait loop:
// publish the wait-for edge bi, optionally will t's priority down the
// ownership chain, park, clear the edge. A nil dequeue parks without a
// deadline; otherwise the park is parkTimed's, and block reports
// whether the deadline cut it short.
func block(t *core.Thread, bi *core.BlockInfo, will bool, clk ktime.Clock, deadline time.Duration, dequeue func() bool) (timedOut bool) {
	t.NoteBlocked(bi)
	if will {
		t.WillPriority()
	}
	if dequeue != nil {
		timedOut = parkTimed(t, clk, deadline, dequeue)
	} else {
		t.Park()
	}
	t.NoteUnblocked()
	return timedOut
}

// TryEnter acquires the lock only if that requires no blocking
// (mutex_tryenter); it reports whether the lock was taken. The paper
// notes it can be used to avoid deadlock in lock-hierarchy
// violations. An owner-dead shared lock is taken and recovered
// transparently; a not-recoverable one is never taken.
func (mp *Mutex) TryEnter(t *core.Thread) bool {
	if mp.sv != nil {
		return mp.tryEnterShared(t)
	}
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.takeLocked(t, false)
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

// ownerWord encodes the calling thread as a shared owner word.
func ownerWord(t *core.Thread) uint64 {
	return usync.EncodeOwner(t.Runtime().Process().PID(), int(t.ID()))
}

// --- process-shared implementation --------------------------------------

func (mp *Mutex) enterShared(t *core.Thread, d time.Duration) error {
	self := ownerWord(t)
	clk := t.Runtime().Kernel().Clock()
	var deadline time.Duration
	if d > 0 {
		deadline = clk.Now() + d
	}
	// The waiter count is incremented once and decremented on every
	// exit from this function — including a kernel unwind tearing
	// through the sleep when this process dies, which previously
	// leaked the count forever.
	waiting := false
	defer func() {
		if waiting {
			mp.sv.Atomically(func(w usync.Words) { w.Store(1, w.Load(1)-1) })
		}
	}()
	var bi *core.BlockInfo
	for {
		var acquired, dead, notrec, selfOwned bool
		mp.sv.Atomically(func(w usync.Words) {
			switch {
			case w.Load(3) == usync.RobustNotRecoverable:
				notrec = true
			case w.Load(0) == 0:
				w.Store(0, 1)
				w.Store(2, self)
				dead = w.Load(3) == usync.RobustOwnerDead
				acquired = true
			default:
				selfOwned = w.Load(2) == self
			}
		})
		if notrec {
			return ErrNotRecoverable
		}
		if acquired {
			if dead {
				return ErrOwnerDead
			}
			return nil
		}
		if selfOwned && mp.variant == VariantErrorCheck {
			return ErrDeadlock
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if !waiting {
			waiting = true
			mp.sv.Atomically(func(w usync.Words) { w.Store(1, w.Load(1)+1) })
		}
		opts := usync.SleepOpts{}
		if d > 0 {
			opts.Timeout = deadline - clk.Now()
		}
		if bi == nil {
			bi = mp.blockInfo()
		}
		// Block in the kernel: the thread is temporarily bound to
		// the LWP that blocks, as in a system call (paper) — the
		// one carrying it now, since the Checkpoint below can move
		// an unbound thread to another pool LWP between sleeps. The
		// sleep breaks on release, on the owner-death sweep
		// (which clears the lock word), and on NOTRECOVERABLE.
		t.NoteBlocked(bi)
		mp.sv.SleepWhile(t.LWP(), func(w usync.Words) bool {
			return w.Load(0) != 0 && w.Load(3) != usync.RobustNotRecoverable
		}, opts)
		t.NoteUnblocked()
		t.Checkpoint()
	}
}

func (mp *Mutex) tryEnterShared(t *core.Thread) bool {
	self := ownerWord(t)
	acquired := false
	mp.sv.Atomically(func(w usync.Words) {
		if w.Load(3) == usync.RobustNotRecoverable {
			return
		}
		if w.Load(0) == 0 {
			w.Store(0, 1)
			w.Store(2, self)
			if w.Load(3) == usync.RobustOwnerDead {
				w.Store(3, usync.RobustOK) // transparent recovery
			}
			acquired = true
		}
	})
	return acquired
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
