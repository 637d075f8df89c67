// Package tsync implements the paper's thread synchronization
// facilities: mutual exclusion locks, condition variables, counting
// semaphores, and multiple-readers/single-writer locks.
//
// Each type follows the paper's rules:
//
//   - A variable statically or dynamically allocated as zero is
//     usable immediately and provides the default implementation
//     variant (all zero values here are valid).
//   - The programmer chooses an implementation variant at
//     initialization time (spin, adaptive, sleep/default,
//     error-checking for mutexes).
//   - Process-shared variants place their state in mapped memory
//     (internal/vm object bytes) and block through the kernel
//     (internal/usync), so threads of different processes — mapping
//     the object at different virtual addresses — synchronize with
//     each other, and a variable placed in a file outlives its
//     creating process.
//
// Operations on unshared variables never enter the simulated kernel
// unless they must block (and for unbound threads not even then: the
// thread parks at user level and its LWP picks another thread).
//
// What the four have in common is written once, in this file: the
// object header embedded first in each (word lock, lazily assigned
// name, cached wait-for edge, shared binding), the futex loop
// and kernel sleep of the shared variants (acquireShared, sleepShared),
// and the park tail of the unshared ones (block, parkTimed). Each
// primitive's own file holds its state and the tests on it: takeLocked,
// tryLocked and the count for the unshared variants, takeShared on the
// mapped words for the shared ones.
//
// Every blocking operation takes the calling thread explicitly
// because Go has no implicit current-thread register; see DESIGN.md.
package tsync

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/core"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
)

// Errors returned by the fallible acquisition entry points (EnterErr,
// TimedEnter, PErr, ...). They map to the POSIX robust-mutex and
// timed-lock errno values named in the comments.
var (
	// ErrTimedOut: the timed acquisition's deadline expired
	// (ETIMEDOUT).
	ErrTimedOut = errors.New("tsync: timed acquisition expired")
	// ErrOwnerDead: the previous owner died holding the lock; the
	// caller now holds it and must make the protected state
	// consistent, then call MakeConsistent — or release, making the
	// lock permanently unusable (EOWNERDEAD).
	ErrOwnerDead = errors.New("tsync: previous owner died holding the lock")
	// ErrNotRecoverable: an owner-dead holder released the lock
	// without MakeConsistent; it can never be acquired again
	// (ENOTRECOVERABLE).
	ErrNotRecoverable = errors.New("tsync: lock is not recoverable")
	// ErrDeadlock: acquiring would deadlock the calling thread —
	// it already owns the lock, or the wait-for graph closes a
	// cycle through it (EDEADLK). Error-check mutexes only.
	ErrDeadlock = errors.New("tsync: acquisition would deadlock")
)

// errBusy is what a shared primitive's take reports when the object is
// not available; the blocking path then sleeps, a try fails. It never
// leaves the package.
var errBusy = errors.New("tsync: busy")

// kind is what the header knows about the primitive that embeds it:
// its lstatus kind, the word layout its shared binding declares to the
// owner-death sweep, and the mapped word holding its shared owner (-1:
// it has none).
type kind struct {
	name   string
	layout usync.Kind
	owner  int
}

var (
	mutexKind = &kind{"mutex", usync.KindMutex, 2}
	semaKind  = &kind{"sema", usync.KindSema, 1}
	rwKind    = &kind{"rwlock", usync.KindRW, 4}
	condKind  = &kind{"cond", usync.KindNone, -1}
)

// nameSeq numbers the lazily assigned names of unshared primitives so
// wait-for edges and /proc lstatus have something to print.
var nameSeq atomic.Uint64

// header is what the four primitives have in common, embedded first in
// Mutex, Sema, RWLock and Cond. The word lock mu stands for the atomic
// sections of a real implementation wherever one sync/atomic operation
// cannot do the job, and is never held while parked: it guards the
// primitive's queue and counts, a semaphore's or rwlock's holder, and
// name, and every store of sv and bi — bind stores both in one section,
// so an edge built under the lock never names an old binding. An
// unshared Mutex's owner is not under it: that owner word is the lock,
// taken and released by compare-and-swap (see Mutex.fast).
type header struct {
	mu   sync.Mutex
	name string                         // lazily assigned; names an unshared object in lstatus
	bi   atomic.Pointer[core.BlockInfo] // cached wait-for edge; see edge
	sv   *usync.Var                     // non-nil: process-shared, state in the mapped words
}

// ownable is an unshared primitive with an owner for the wait-for
// graph: a Mutex's owner word, an RWLock's writer, a Sema's last P-er
// without a V. ownerLocked identifies it, or reports false if there is
// none; the word lock is held.
type ownable interface {
	ownerLocked() (core.OwnerRef, bool)
}

// refOf identifies holder, a thread the word lock keeps from letting go.
func refOf(holder *core.Thread) (core.OwnerRef, bool) {
	if holder == nil {
		return core.OwnerRef{}, false
	}
	return core.OwnerRef{TID: holder.ID()}, true
}

// bind makes the object process-shared at sv (InitShared). The cached
// edge names the old identity, so it is dropped in the same word-lock
// section that stores sv.
func (h *header) bind(sv *usync.Var, k *kind) {
	h.mu.Lock()
	h.sv = sv
	h.bi.Store(nil)
	h.mu.Unlock()
	if k.layout != usync.KindNone {
		sv.Declare(k.layout)
	}
}

// nameOf returns the object's identity for diagnostics: the shared
// variable's system-wide name, or a lazily assigned "kind#N".
func (h *header) nameOf(k *kind) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nameLocked(k)
}

func (h *header) nameLocked(k *kind) string {
	if h.sv != nil {
		return h.sv.Name()
	}
	if h.name == "" {
		h.name = fmt.Sprintf("%s#%d", k.name, nameSeq.Add(1))
	}
	return h.name
}

// edge returns the wait-for edge a thread publishes while it waits on
// the object. The owner resolves at walk time, so the edge is immutable:
// it is built once, under the word lock, and shared by every waiter —
// blocking allocates nothing — and later waits read it with one atomic
// load. o resolves the owner of the unshared object (nil for Cond); ts
// and policy are an unshared Mutex's or RWLock's turnstile and lock
// policy (a Mutex pins its policy before it first blocks); a shared
// binding has none of the three.
func (h *header) edge(k *kind, o ownable, ts *core.Turnstile, policy string) *core.BlockInfo {
	if bi := h.bi.Load(); bi != nil {
		return bi
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bi := h.bi.Load()
	if bi == nil {
		bi = &core.BlockInfo{Kind: k.name, Name: h.nameLocked(k)}
		if k.owner >= 0 {
			bi.Owner = func() (core.OwnerRef, bool) { return h.ownerRef(k.owner, o) }
		}
		if h.sv == nil {
			bi.Ts, bi.Policy = ts, policy
		}
		h.bi.Store(bi)
	}
	return bi
}

// ownerRef resolves the owner for the wait-for graph, at walk time and
// never under the caller's locks; word is the shared owner word, o the
// unshared owner. A walker can still be resolving an edge cached before
// bind, so sv is read under the word lock bind stores it under, and a
// local owner is identified there too, while it still is the owner — a
// thread that has released may exit and have its Thread recycled.
func (h *header) ownerRef(word int, o ownable) (core.OwnerRef, bool) {
	h.mu.Lock()
	sv := h.sv
	var ref core.OwnerRef
	owned := false
	if sv == nil && o != nil {
		ref, owned = o.ownerLocked()
	}
	h.mu.Unlock()
	if sv == nil {
		return ref, owned
	}
	var ow uint64
	sv.Atomically(func(w usync.Words) { ow = w.Load(word) })
	pid, tid := usync.DecodeOwner(ow)
	return core.OwnerRef{PID: pid, TID: core.ThreadID(tid)}, ow != 0
}

// ownerWord encodes the calling thread as a shared owner word.
func ownerWord(t *core.Thread) uint64 {
	return usync.EncodeOwner(t.Runtime().Process().PID(), int(t.ID()))
}

// deadlineOf returns t's clock and the time a wait bounded by d ends
// (d <= 0: unbounded, and the clock is not read).
func deadlineOf(t *core.Thread, d time.Duration) (clk ktime.Clock, deadline time.Duration) {
	clk = t.Runtime().Kernel().Clock()
	if d > 0 {
		deadline = clk.Now() + d
	}
	return clk, deadline
}

// acquireShared is the futex loop of a process-shared acquisition. take
// tries the mapped words in one section and reports errBusy while the
// object is unavailable; t then sleeps in the kernel while busy holds at
// commit, and tries again. d > 0 bounds the wait (ErrTimedOut);
// indefinite marks the sleeps for SIGWAITING (DESIGN.md "Which waits are
// indefinite"). counter >= 0 is a mapped waiter count the release reads:
// incremented once, before the first sleep, and decremented on every
// exit — including a kernel unwind tearing through the sleep when this
// process dies, which would otherwise leak the count forever.
func (h *header) acquireShared(t *core.Thread, k *kind, d time.Duration, indefinite bool, counter int,
	take func(usync.Words) error, busy func(usync.Words) bool) error {
	clk, deadline := deadlineOf(t, d)
	counted := false
	defer func() {
		if counted {
			h.sv.Atomically(func(w usync.Words) { w.Store(counter, w.Load(counter)-1) })
		}
	}()
	for {
		err := errBusy
		h.sv.Atomically(func(w usync.Words) { err = take(w) })
		if err != errBusy {
			return err
		}
		var rem time.Duration
		if d > 0 {
			if rem = deadline - clk.Now(); rem <= 0 {
				return ErrTimedOut
			}
		}
		if counter >= 0 && !counted {
			counted = true
			h.sv.Atomically(func(w usync.Words) { w.Store(counter, w.Load(counter)+1) })
		}
		h.sleepShared(t, k, busy, usync.SleepOpts{Indefinite: indefinite, Timeout: rem})
		t.Checkpoint()
	}
}

// sleepShared is the kernel sleep every shared wait ends in: publish
// the edge and block on the variable's queue while busy holds at
// commit. The thread is temporarily bound to the LWP that blocks, as in
// a system call (paper) — the one carrying it now, read at every sleep,
// since a Checkpoint between sleeps can move an unbound thread to
// another pool LWP. Reports whether the sleep timed out.
func (h *header) sleepShared(t *core.Thread, k *kind, busy func(usync.Words) bool, opts usync.SleepOpts) bool {
	t.NoteBlocked(h.edge(k, nil, nil, ""))
	res, slept := h.sv.SleepWhile(t.LWP(), busy, opts)
	t.NoteUnblocked()
	return slept && res == sim.WakeTimeout
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

// block is the park tail of every unshared primitive's wait: publish
// the wait-for edge bi, optionally will t's priority down the ownership
// chain, park, clear the edge. A nil dequeue parks without a deadline;
// otherwise the park is parkTimed's, and block reports whether the
// deadline cut it short.
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

// Variant selects a mutex implementation variant, as the paper allows
// at initialization time.
type Variant int

// Mutex variants.
const (
	// VariantDefault parks waiters after a brief adaptive phase.
	VariantDefault Variant = iota
	// VariantSpin never parks: waiters spin (yielding the LWP
	// between probes). Appropriate for short critical sections on
	// multiprocessors.
	VariantSpin
	// VariantAdaptive spins briefly, then parks — explicit version
	// of the default.
	VariantAdaptive
	// VariantErrorCheck records ownership and panics on
	// self-deadlock or on release by a non-owner, matching the
	// paper's "extra debugging" variant. Mutexes are strictly
	// bracketing: releasing a lock not held by the thread is an
	// error.
	VariantErrorCheck
)

// waitq is a queue of parked threads — ordered by descending
// effective priority, FIFO among equals, so pop always wakes the best
// waiter — fronted by the primitive's word lock (see header). The
// waiters themselves hang off one
// channel of the core package's sharded sleep-queue table (the
// Solaris turnstile analogue), so enqueue, dequeue and — critically
// for timed waits — middle-of-queue removal are all O(1), and
// primitives hashing to different shards never touch a common lock.
// The channel is allocated lazily under the word lock, keeping the
// paper's "a zero variable is usable immediately" rule.
type waitq struct {
	wc core.WaitChan
}

func (w *waitq) chanOf() core.WaitChan {
	if !w.wc.Valid() {
		w.wc = core.AllocWaitChan()
	}
	return w.wc
}

// chanFor is chanOf, except that fifo allocates the queue as a strict
// arrival-order channel instead — the hand-off lock policies'
// discipline. A given waitq is allocated exactly one way (the policy
// is pinned before its first enqueue), so the two allocators never
// race on one queue.
func (w *waitq) chanFor(fifo bool) core.WaitChan {
	if fifo && !w.wc.Valid() {
		w.wc = core.AllocWaitChanFIFO()
	}
	return w.chanOf()
}

func (w *waitq) push(t *core.Thread) { w.chanOf().Enqueue(t) }

// pop, len and popAll run under the word lock every enqueue takes, so
// an empty channel answers from its count, without the shard lock.
func (w *waitq) pop() *core.Thread {
	if !w.wc.Valid() {
		return nil
	}
	return w.wc.DequeueOne()
}

func (w *waitq) remove(t *core.Thread) bool {
	if !w.wc.Valid() || !t.Queued() {
		return false
	}
	return w.wc.Remove(t)
}

// removeUnder is remove for a caller outside the primitive's word lock
// mu — a timer, or a waiter back from a park. False means a waker
// already popped t; a t on no queue says so without either lock.
func (w *waitq) removeUnder(mu *sync.Mutex, t *core.Thread) bool {
	if !t.Queued() {
		return false
	}
	mu.Lock()
	removed := w.remove(t)
	mu.Unlock()
	return removed
}

func (w *waitq) len() int {
	if !w.wc.Valid() {
		return 0
	}
	return w.wc.Len()
}

// popAll empties the queue, returning the waiters in queue
// (priority-then-FIFO) order.
func (w *waitq) popAll() []*core.Thread {
	if !w.wc.Valid() {
		return nil
	}
	return w.wc.DequeueAll()
}

// chaosOf returns the chaos source perturbing t's system (nil — and
// so inert — when chaos is disabled). Spurious wakeups are injected
// only at the park sites in this package because every one of them
// sits in a Mesa-style re-check loop; kernel sleep sites do not all
// tolerate a WakeNormal without the awaited event.
func chaosOf(t *core.Thread) *chaos.Source { return t.Runtime().ChaosSource() }
