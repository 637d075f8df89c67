// Turnstiles: priority inheritance through blocking chains.
//
// Solaris queues the waiters of each blocking synchronization object
// on a turnstile and, when a thread blocks, "wills" its dispatch
// priority to the owner of the object — and transitively to whatever
// that owner is itself blocked on — so a low-priority lock holder
// cannot indefinitely invert a high-priority acquirer. On release the
// owner recomputes its priority from the turnstiles it still holds.
//
// This file is that mechanism for the library: every thread carries a
// base priority (prio, what thread_priority sets) and an effective
// priority (effPrio, what the dispatcher and the sleep queues order
// by). A tsync mutex or rwlock embeds a Turnstile. As in Solaris, the
// turnstile joins its owner's held list only once someone waits: a
// blocking acquirer links it to the current owner (Contend), then
// walks the published BlockInfo chain willing its effective priority
// to each owner (WillPriority); releasing a linked turnstile
// recomputes the owner's effective priority from its remaining held
// turnstiles (Released). An acquisition and release nobody waits for
// never touches Runtime.mu.
//
// Locking: Turnstile.linked is guarded by the object's word lock;
// Turnstile.owner and the held-list links by the owning Runtime.mu
// (local primitives never span processes). The waiter-queue bucket
// pointers are atomics set under the primitive's word lock; reading a
// bucket's head takes only the sleep-queue shard lock, which is a leaf
// and therefore safe under Runtime.mu. Kernel calls (Priocntl,
// mirroring a boost onto a bound LWP) happen outside Runtime.mu.
package core

import (
	"sync/atomic"

	"sunosmt/internal/sim"
)

// maxPIChain bounds the inheritance walk; chains this deep indicate a
// cycle the deadlock detector will report, not a priority problem.
const maxPIChain = 64

// Turnstile is the inheritance anchor embedded in an ownable blocking
// object (mutex, rwlock). The zero value is ready for use.
type Turnstile struct {
	// q1/q2 point at the object's waiter queue buckets (rwlock:
	// writers and readers). Set under the object's word lock, read
	// during effective-priority recomputation.
	q1, q2 atomic.Pointer[sleepqBucket]

	// linked is the owner the turnstile was last linked to, nil if
	// none; guarded by the object's word lock. It lets Released skip
	// Runtime.mu for a turnstile nobody waited on. dropTurnstilesLocked
	// holds only Runtime.mu and cannot clear it, so after the owner
	// dies it may name a thread whose held list no longer has the
	// turnstile: Contend then sees the same owner and does not relink
	// it, and Released finds owner nil and returns.
	linked *Thread

	owner      *Thread    // current owner; guarded by owner's Runtime.mu
	next, prev *Turnstile // owner's held-turnstile list; Runtime.mu
}

// SetQueue publishes the object's (primary) waiter queue so a release
// can recompute the owner's effective priority from the queued
// waiters. Idempotent; called under the object's word lock.
func (ts *Turnstile) SetQueue(wc WaitChan) { ts.q1.Store(wc.b) }

// SetQueue2 publishes a second waiter queue (the rwlock's reader
// queue).
func (ts *Turnstile) SetQueue2(wc WaitChan) { ts.q2.Store(wc.b) }

// Linked returns the owner the turnstile is linked to, nil if none;
// called under the object's word lock.
func (ts *Turnstile) Linked() *Thread { return ts.linked }

// Contend links the turnstile into o's held list, so o's effective
// priority accounts for the object's waiters from now on. Called under
// the object's word lock by a thread about to block behind owner o —
// before it queues and wills its priority — and by a new owner o that
// took the object past queued waiters. A turnstile already linked to o
// costs nothing; a dead owner is not linked.
//
// Ownership can move without a Released: a mutex owner releases with
// one swap and takes the word lock only afterwards, and in between
// another thread can take the lock past the queue and contend. The
// stale owner is then unhooked and its effective priority recomputed,
// as Released does, so no boost willed through this object outlives
// its ownership.
func (ts *Turnstile) Contend(o *Thread) {
	if ts.linked == o {
		return
	}
	ts.linked = o
	m := o.m
	m.mu.Lock()
	stale := ts.owner
	mirror := false
	if stale != nil {
		ts.unlinkLocked(stale)
		mirror = m.recomputeEffLocked(stale)
	}
	if o.state != ThreadZombie {
		ts.owner = o
		ts.prev = nil
		ts.next = o.heldTs
		if o.heldTs != nil {
			o.heldTs.prev = ts
		}
		o.heldTs = ts
	}
	m.mu.Unlock()
	if mirror {
		m.mirrorBoundPrio(stale)
	}
}

// unlinkLocked detaches ts from o's held list; Runtime.mu is held.
func (ts *Turnstile) unlinkLocked(o *Thread) {
	if ts.prev != nil {
		ts.prev.next = ts.next
	} else {
		o.heldTs = ts.next
	}
	if ts.next != nil {
		ts.next.prev = ts.prev
	}
	ts.next, ts.prev = nil, nil
	ts.owner = nil
}

// Released drops the turnstile from its owner and recomputes the
// owner's effective priority from its base priority and the waiters
// of the turnstiles it still holds — any boost willed through this
// object is shed here. A turnstile nobody contended was never linked,
// so nothing was willed through it and Released returns at once.
// Called under the object's word lock by the releasing thread.
func (ts *Turnstile) Released(t *Thread) {
	if ts.linked == nil {
		return
	}
	ts.linked = nil
	m := t.m
	m.mu.Lock()
	o := ts.owner
	if o == nil {
		m.mu.Unlock()
		return
	}
	ts.unlinkLocked(o)
	mirror := m.recomputeEffLocked(o)
	m.mu.Unlock()
	if mirror {
		m.mirrorBoundPrio(o)
	}
}

// WillPriority wills the calling thread's effective priority down its
// blocking chain: for each hop, the owner of the object t (then the
// owner, then...) is blocked on is boosted to at least t's effective
// priority. Called by a blocking acquirer after it has published its
// BlockInfo and queued itself, before parking. Chains end at objects
// with no turnstile (cond, sema, process-shared variants), at an
// unowned object, or at an owner already at or above the willed
// priority.
func (t *Thread) WillPriority() {
	m := t.m
	if m.cfg.NoPriorityInheritance {
		return
	}
	bi := t.blocked.Load()
	for hops := 0; bi != nil && bi.Ts != nil && hops < maxPIChain; hops++ {
		ts := bi.Ts
		m.mu.Lock()
		// Re-read our own effective priority under the lock on every
		// hop: a boost willed TO us concurrently (we are someone
		// else's lock owner) is published under m.mu, and reading it
		// here rather than once up front means it propagates down
		// this chain too — without this, a walk that races with its
		// own boost wills a stale, lower priority.
		p := int(t.effPrio.Load())
		o := ts.owner
		if o == nil || o == t || int(o.effPrio.Load()) >= p {
			m.mu.Unlock()
			return
		}
		mirror := m.setEffLocked(o, p)
		next := o.blocked.Load()
		m.mu.Unlock()
		if mirror {
			m.mirrorBoundPrio(o)
		}
		bi = next
	}
}

// heldMaxLocked returns the highest effective priority among the
// waiters of every turnstile t holds, or -1. Priority-ordered buckets
// (kept sorted by reposition) need only their head read — O(1) per
// held turnstile. FIFO buckets (hand-off lock policies) keep arrival
// order, so the head is not the maximum and the whole queue is walked;
// queue depth there is bounded by the lock's contention, and the walk
// is what keeps the inheritance invariant (owner runs at ≥ the best
// blocked waiter) independent of wakeup order. Runtime.mu is held; the
// shard locks are leaves.
func (m *Runtime) heldMaxLocked(t *Thread) int {
	best := -1
	for ts := t.heldTs; ts != nil; ts = ts.next {
		for _, bp := range [...]*atomic.Pointer[sleepqBucket]{&ts.q1, &ts.q2} {
			b := bp.Load()
			if b == nil {
				continue
			}
			mu := &sleepqLock[b.shard]
			mu.Lock()
			if b.fifo {
				for w := b.head; w != nil; w = w.sqNext {
					if p := int(w.effPrio.Load()); p > best {
						best = p
					}
				}
			} else if h := b.head; h != nil {
				if p := int(h.effPrio.Load()); p > best {
					best = p
				}
			}
			mu.Unlock()
		}
	}
	return best
}

// recomputeEffLocked sets t's effective priority from its base priority
// and the waiters of the turnstiles it still holds, reporting what
// setEffLocked does. Runtime.mu is held.
func (m *Runtime) recomputeEffLocked(t *Thread) bool {
	eff := t.prio
	if h := m.heldMaxLocked(t); h > eff {
		eff = h
	}
	return m.setEffLocked(t, eff)
}

// HandOff transfers turnstile ownership from the releasing thread
// directly to to, the waiter being granted the lock, without an
// unowned window: in one Runtime.mu critical section the turnstile
// moves from from's held list to to's, from sheds any boost it was
// inheriting through this object, and to is boosted from the waiters
// still queued behind it — so the inheritance invariant (an owner runs
// at at least the effective priority of its best blocked waiter) holds
// across the hand-off itself. Used by the hand-off lock policies
// (ticket, MCS/CLH); the barging policies use Released + Contend.
// Called under the object's word lock, with to already dequeued from
// the waiter queue.
func (ts *Turnstile) HandOff(from, to *Thread) {
	ts.linked = to
	m := from.m
	m.mu.Lock()
	if ts.owner == from {
		ts.unlinkLocked(from)
	} else if ts.owner != nil {
		// Stale owner (should not happen for local primitives) —
		// unhook it so the links stay consistent.
		ts.unlinkLocked(ts.owner)
	}
	// Recompute the releaser first: any boost willed through this
	// object is shed now that its waiters are to's problem.
	mirrorFrom := m.recomputeEffLocked(from)

	// Link the turnstile to the new owner and boost it from the
	// waiters still queued. to is typically sleeping (about to be
	// unparked); setEffLocked repositions it if needed.
	ts.owner = to
	ts.prev = nil
	ts.next = to.heldTs
	if to.heldTs != nil {
		to.heldTs.prev = ts
	}
	to.heldTs = ts
	mirrorTo := m.recomputeEffLocked(to)
	m.mu.Unlock()
	if mirrorFrom {
		m.mirrorBoundPrio(from)
	}
	if mirrorTo {
		m.mirrorBoundPrio(to)
	}
}

// setEffLocked installs a new effective priority, moving the thread
// wherever priority orders it: its run-queue level if queued runnable,
// its position within its sleep-queue bucket if blocked, and the
// preemption check if the raise outranks a running thread. Returns
// whether the thread is bound — the caller must then mirror the
// change onto the LWP's class priority outside Runtime.mu.
func (m *Runtime) setEffLocked(t *Thread, p int) bool {
	if int(t.effPrio.Load()) == p {
		return false
	}
	t.effPrio.Store(int32(p))
	if m.runq.Remove(&t.rq) {
		m.runq.Push(&t.rq, t, p)
	}
	if t.state == ThreadRunnable {
		m.flagPreemptionLocked(p)
	}
	if b := t.sqBkt.Load(); b != nil {
		(WaitChan{b}).reposition(t)
	}
	return t.bound()
}

// mirrorBoundPrio maps a bound thread's effective priority onto its
// LWP's kernel class priority so the kernel dispatcher honours the
// boost. Called outside Runtime.mu (Priocntl takes the kernel lock).
func (m *Runtime) mirrorBoundPrio(t *Thread) {
	l := t.bndLWP
	if l == nil {
		return
	}
	p := int(t.effPrio.Load())
	if p > sim.MaxUserPrio {
		p = sim.MaxUserPrio
	}
	// Best-effort: an inheritance boost must not fail the release
	// path; thread_priority's own kernel errors surface through
	// SetPriority instead.
	_ = m.kern.Priocntl(l, l.Class(), p)
}

// dropTurnstilesLocked severs every turnstile a dying thread still
// holds so no later acquirer walks into freed state. The waiters
// themselves are woken (or torn down) by the primitive or the process
// sweep; this only breaks the ownership links. Runtime.mu is held, not
// the objects' word locks, so each turnstile's linked stays stale (see
// Turnstile.linked).
func (m *Runtime) dropTurnstilesLocked(t *Thread) {
	for ts := t.heldTs; ts != nil; {
		next := ts.next
		ts.owner = nil
		ts.next, ts.prev = nil, nil
		ts = next
	}
	t.heldTs = nil
}

// EffPriority returns the thread's effective (inherited) priority: its
// base priority plus any boost willed through the turnstiles it holds.
func (t *Thread) EffPriority() int { return int(t.effPrio.Load()) }
