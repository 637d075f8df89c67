// Lock policies: one mutex discipline, four named points in it.
//
// "Basic Lock Algorithms in Lightweight Thread Environments" finds
// that under user-level threading the lock/wake policy — who spins,
// who parks, and whom the release wakes — dominates tail latency, not
// the critical section itself. Those decisions are the fields of a
// discipline; Mutex has one contended-acquire loop (enterLocal) and
// one release (exitLocal) that read them, and a policy is a row of
// constants in the disciplines table. The word lock, the owner word,
// the turnstile, and the robust shared-memory variant are common to
// every row; the process-shared path never comes here — its waiters
// sleep in the kernel on the mapped words. Only the adaptive row swaps
// the owner word outside the word lock: while nobody waits (Mutex.fast)
// Enter and TryEnter take a free lock with one swap, and its owner
// always releases with one, finishing under the word lock only when a
// waiter has cleared fast. The hand-off rows must never leave the lock
// free while a waiter is queued, and parkinglot counts every release,
// so those three release under the word lock.
//
// What release does splits the rows into two families:
//
//   - Barging (adaptive; parkinglot on 63 releases of 64): release
//     clears the owner word and wakes the best waiter, but an un-queued
//     acquirer that arrives before the woken waiter runs can take the
//     lock first (Mesa semantics, like Solaris adaptive mutexes).
//     Throughput-friendly — the lock is never held by a thread that is
//     not running — but unfair under sustained contention.
//   - Hand-off (ticket, queue; parkinglot's 64th): release transfers
//     ownership directly to the popped waiter while the lock stays
//     held — there is no unowned window, so no barging and no
//     starvation. Tail latency is bounded by queue position at the
//     cost of lock hand-off convoys when the wake is slow.
//
// Hand-off interacts with priority inheritance: a FIFO queue's head
// is not its best waiter, so the turnstile scans hand-off queues in
// full (core.heldMaxLocked) and ownership transfer re-computes both
// threads' effective priorities in one critical section
// (core.Turnstile.HandOff) — the inheritance invariant, eff(owner) >=
// max(eff(blocked waiters)), holds across the transfer itself.
package tsync

import (
	"time"

	"sunosmt/internal/core"
)

// Policy selects a mutex lock/wake policy, per-lock via
// Mutex.InitPolicy or per-process via the runtime's LockPolicy config
// (mt.ProcConfig). Orthogonal to Variant: error checking and the
// pure-spin variant behave the same under every policy.
type Policy int

// Mutex lock policies.
const (
	// PolicyDefault defers to the process default (core.Config
	// .LockPolicy), which itself defaults to PolicyAdaptive.
	PolicyDefault Policy = iota
	// PolicyAdaptive is the paper's adaptive mutex: spin while the
	// owner is observed on-CPU, park otherwise; barging release.
	PolicyAdaptive
	// PolicyTicket queues waiters in strict arrival order and hands
	// the lock to the oldest waiter on release (a ticket lock's
	// now-serving discipline on the sleep queue). No spin phase.
	PolicyTicket
	// PolicyQueue is the MCS/CLH-style queue lock: arrival-order
	// hand-off like ticket, but a queued waiter briefly spins on its
	// own grant (local spinning) before parking.
	PolicyQueue
	// PolicyParkingLot is a parking-lot-style adaptive lock: a short
	// fixed spin (owner state ignored), priority-ordered parking, and
	// barging release — except every 64th release hands off directly
	// to the best waiter, parking_lot's eventual-fairness rule.
	PolicyParkingLot
)

// String implements fmt.Stringer; the names appear in /proc lstatus
// and in journal metadata.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(disciplines) {
		return "policy?"
	}
	return disciplines[p].name
}

// Policies lists the concrete policies (for conformance and chaos
// sweeps).
func Policies() []Policy {
	return []Policy{PolicyAdaptive, PolicyTicket, PolicyQueue, PolicyParkingLot}
}

// discipline is everything that distinguishes one lock policy from
// another. The fields are constants of the table below, not knobs.
type discipline struct {
	name string
	// spinOnOwner selects the spin rule. True: probe only while the
	// owner is observed on a processor, with the budget charged per
	// OBSERVED OWNER (see spinBudget). False: a fixed budget whatever
	// the owner is doing — a short-hold bet that pays on
	// multiprogrammed hosts where OnCPU is stale, at the cost of
	// wasted probes when the owner is truly descheduled.
	spinOnOwner bool
	// spinCap bounds the probes (each yielding the LWP) a waiter makes
	// before it queues; 0 queues at once.
	spinCap int
	// fifo queues waiters on a strict arrival-order channel instead of
	// the priority-ordered one. Baked into the sleep channel at its
	// first enqueue, which is why a mutex's policy is pinned for life.
	fifo bool
	// handOffEvery makes every Nth release — counting every release,
	// contended or not — a direct ownership transfer to the popped
	// waiter instead of a barging release: 0 never, 1 always. In
	// between is parking_lot's eventual fairness: it bounds how long a
	// parked waiter can be barged past without reintroducing hand-off
	// convoys on every release.
	handOffEvery uint64
	// localSpinCap bounds the probes of its own grant (each yielding
	// the LWP) a waiter makes after queueing and before parking — the
	// MCS distinctive. Short: its job is to catch an imminent hand-off
	// without a park/unpark round trip, not to busy-wait through a
	// hold.
	localSpinCap int
}

// disciplines is the whole policy space in use. adaptive's cap
// catches pathological long critical sections — its real bound is the
// owner leaving the CPU; parkinglot's 40 is webkit-parking-lot's.
var disciplines = [...]discipline{
	PolicyDefault:    {name: "default"}, // a name only: resolved before use
	PolicyAdaptive:   {name: "adaptive", spinOnOwner: true, spinCap: 128},
	PolicyTicket:     {name: "ticket", fifo: true, handOffEvery: 1},
	PolicyQueue:      {name: "queue", fifo: true, handOffEvery: 1, localSpinCap: 32},
	PolicyParkingLot: {name: "parkinglot", spinCap: 40, handOffEvery: 64},
}

// concrete maps p to a row of the table. Anything that is not one —
// PolicyDefault with nothing left to defer to, or an out-of-range
// value such as ProcConfig{LockPolicy: 9} — is adaptive, the paper's
// discipline, and since the result is what gets pinned, such a lock
// reports adaptive as well as running it.
func (p Policy) concrete() Policy {
	if p <= PolicyDefault || int(p) >= len(disciplines) {
		return PolicyAdaptive
	}
	return p
}

// disciplineLocked resolves mp's discipline — the per-lock policy if
// one was set with InitPolicy, else the process default from t's
// runtime, else adaptive — and pins it on the first Enter or Exit, so
// a mutex never changes discipline mid-life. The pure-spin variant
// never parks, so only adaptive's barging release applies to it. Word
// lock held: the callers are already inside their first section.
func (mp *Mutex) disciplineLocked(t *core.Thread) *discipline {
	if !mp.pinned {
		p := mp.policy
		if p == PolicyDefault {
			p = Policy(t.Runtime().LockPolicy())
		}
		if mp.variant == VariantSpin {
			p = PolicyAdaptive
		}
		mp.policy, mp.pinned = p.concrete(), true
		if mp.policy == PolicyAdaptive {
			mp.adaptive.Store(true)
			mp.refastLocked()
		}
	}
	return &disciplines[mp.policy]
}

// refastLocked sets fast once the word lock has nothing left to do for
// an uncontended pair: the lock is pinned adaptive, no waiter is queued
// and the turnstile is unlinked. Word lock held.
func (mp *Mutex) refastLocked() {
	if !mp.fast.Load() && mp.adaptive.Load() && mp.waiters.len() == 0 && mp.ts.Linked() == nil {
		mp.fast.Store(true)
	}
}

// spinBudget counts one waiter's pre-queue probes against its
// discipline's cap. Under the owner-on-CPU rule the budget is per
// OBSERVED OWNER, not per acquisition attempt: a waiter that has spun
// on several successive short-hold owners is exactly the waiter whose
// next owner is also likely to release quickly, so an owner change
// resets the budget instead of counting against it. The fixed rule
// bets on the hold time alone and has no such reset.
type spinBudget struct {
	last  *core.Thread
	spins int
}

// take charges one probe of a lock held by owner, reporting whether
// the budget allowed it.
func (s *spinBudget) take(dp *discipline, owner *core.Thread) bool {
	if dp.spinOnOwner && owner != s.last {
		s.last = owner
		s.spins = 0
	}
	if s.spins >= dp.spinCap {
		return false
	}
	s.spins++
	return true
}

// takeLocked completes an acquisition if it can: the lock is free, or
// — granted — a hand-off release dequeued t and made it owner while it
// waited (the lock was never free meanwhile, so nobody barged in
// between). It returns nil when t holds the lock, else the owner that
// keeps it out. Taking a free lock links the turnstile only when
// waiters are still queued, so t's effective priority keeps accounting
// for the threads it went past; an uncontended acquisition takes no
// scheduler lock. The swap is needed under the word lock too: a fast
// acquirer or releaser does not take it. Word lock held.
func (mp *Mutex) takeLocked(t *core.Thread, granted bool) *core.Thread {
	for {
		o := mp.owner.Load()
		if granted && o == t {
			return nil
		}
		if o != nil {
			return o
		}
		if mp.owner.CompareAndSwap(nil, t) {
			if mp.waiters.len() > 0 {
				mp.ts.Contend(t)
			}
			return nil
		}
	}
}

// takeFast is the acquisition of a lock whose fast flag the caller saw
// set: one swap of the owner word, reporting whether t took the lock.
// A waiter may have queued between the flag test and the swap; it
// clears the flag first, so finding it clear after the swap sends t to
// link the turnstile as takeLocked does.
func (mp *Mutex) takeFast(t *core.Thread) bool {
	if !mp.owner.CompareAndSwap(nil, t) {
		return false
	}
	if !mp.fast.Load() {
		mp.mu.Lock()
		if mp.waiters.len() > 0 {
			mp.ts.Contend(t)
		}
		mp.mu.Unlock()
	}
	return true
}

// ownerLocked identifies the owner while it still owns: the owner word
// is not under the word lock, and a thread that has released may exit
// and have its Thread recycled, so the ID read counts only if a second
// load finds the same owner.
func (mp *Mutex) ownerLocked() (core.OwnerRef, bool) {
	for {
		o := mp.owner.Load()
		if o == nil {
			return core.OwnerRef{}, false
		}
		id := o.ID()
		if mp.owner.Load() == o {
			return core.OwnerRef{TID: id}, true
		}
	}
}

// enterLocal is the unshared acquisition path, one loop for every
// discipline: probe, spin by the discipline's rule, queue on its
// channel, park, and re-check on waking — re-competing after a barging
// release (Mesa semantics, as with real adaptive locks: the mutex may
// have been stolen), finding itself owner after a hand-off. d > 0
// bounds the wait (ErrTimedOut). Called with no locks held.
func (mp *Mutex) enterLocal(t *core.Thread, d time.Duration) error {
	clk, deadline := deadlineOf(t, d)
	var (
		budget  spinBudget
		dequeue func() bool // timed waits only: the untimed path allocates nothing
		granted bool        // possible only once t has queued under a hand-off discipline
	)
	for {
		mp.mu.Lock()
		dp := mp.disciplineLocked(t)
		owner := mp.takeLocked(t, granted)
		mp.mu.Unlock()
		if owner == nil {
			return nil
		}
		// EDEADLK at lock time: self-ownership, or the wait-for graph
		// shows the owner (transitively) waiting on us. Checked before
		// parking.
		if mp.variant == VariantErrorCheck && (owner == t || t.Runtime().WouldDeadlock(t, owner)) {
			return ErrDeadlock
		}
		if d > 0 && clk.Now() >= deadline {
			return ErrTimedOut
		}
		if mp.variant == VariantSpin {
			t.Yield() // let the holder run; never park
			continue
		}
		if (!dp.spinOnOwner || owner.OnCPU()) && budget.take(dp, owner) {
			// Under the owner-on-CPU rule, as in the real Solaris
			// adaptive mutex: the owner is executing on a processor, so
			// its release is likely imminent and cheaper to catch than
			// two context switches. The moment the owner is seen
			// off-CPU — unloaded, or loaded on an LWP that is asleep in
			// the kernel, parked or preempted — fall through and park.
			t.Yield()
			continue
		}
		// Queue and park. The enqueue happens under the word lock;
		// the wake permit protocol in core makes the release-side
		// unpark race-free. Clearing fast before the last probe pairs
		// with the fast Exit's re-load after its swap: either that
		// Exit sees the flag clear and finishes under the word lock,
		// waking us, or our probe sees its release.
		mp.mu.Lock()
		mp.fast.Store(false)
		owner = mp.takeLocked(t, granted)
		if owner == nil {
			mp.mu.Unlock()
			return nil // released, or handed to us, between probes
		}
		mp.ts.Contend(owner) // before queueing: the owner now answers for us
		q := mp.waiters.chanFor(dp.fifo)
		mp.ts.SetQueue(q)
		q.Enqueue(t)
		granted = dp.handOffEvery != 0
		mp.mu.Unlock()
		if chaosOf(t).SpuriousWakeup() {
			// Chaos: the park returns with no real wake. Deregister
			// (a real wake would have popped us — and if a grant
			// already has, the re-check sees ownership) and re-contend
			// from the tail.
			mp.waiters.removeUnder(&mp.mu, t)
			t.Checkpoint()
			continue
		}
		// Local spinning: probe for our own grant — never compete for
		// the lock — so an imminent hand-off is caught without a
		// park/unpark round trip. The park below then consumes the
		// grant's wake permit immediately.
		for i := 0; i < dp.localSpinCap && mp.owner.Load() != t; i++ {
			t.Yield()
		}
		if d > 0 && dequeue == nil {
			dequeue = func() bool { return mp.waiters.removeUnder(&mp.mu, t) }
		}
		// Parking wills our effective priority down the ownership
		// chain so the holder (and whatever it is blocked on) outranks
		// us meanwhile — the turnstile priority inheritance.
		if block(t, mp.edge(mutexKind, mp, &mp.ts, dp.name), true, clk, deadline, dequeue) {
			return ErrTimedOut
		}
		// A park can return on a stale permit — an Exit that popped us
		// while we took the spurious path above unparked us later —
		// leaving us queued. Deregister, as Sema and Cond do, or a
		// later Exit pops a thread that is not waiting and strands the
		// one that is.
		mp.waiters.removeUnder(&mp.mu, t)
		budget = spinBudget{} // a fresh contention round gets a fresh spin budget
	}
}

// exitLocal releases the unshared mutex held by t and wakes the best
// waiter on the discipline's channel. A barging release leaves the
// lock free for whoever gets there first; a hand-off release transfers
// ownership to the woken waiter with the lock held throughout, and the
// turnstile moves with it. Called with no locks held.
//
// The owner of an adaptive lock releases with one swap, and is done if
// fast is set after it. A waiter that cleared the flag may have queued
// behind t, so otherwise t finishes under the word lock: it wakes the
// best waiter if the lock is still free (a barger that took it now
// answers for the queue), and releases the turnstile only if it is
// still linked to t (a barger may have relinked it; Contend then shed
// t's boost). A swap that fails — t is not the owner — takes the
// locked path, where the error-check variant panics.
func (mp *Mutex) exitLocal(t *core.Thread) {
	var wake *core.Thread
	if mp.adaptive.Load() && mp.owner.CompareAndSwap(t, nil) {
		if mp.fast.Load() {
			return
		}
		mp.mu.Lock()
		if mp.owner.Load() == nil {
			wake = mp.waiters.pop()
		}
		if mp.ts.Linked() == t {
			mp.ts.Released(t)
		}
	} else {
		mp.mu.Lock()
		dp := mp.disciplineLocked(t)
		if mp.variant == VariantErrorCheck && mp.owner.Load() != t {
			mp.mu.Unlock()
			panic("tsync: mutex_exit of a lock not held by the thread")
		}
		mp.releases++
		wake = mp.waiters.pop()
		if wake != nil && dp.handOffEvery != 0 && mp.releases%dp.handOffEvery == 0 {
			mp.owner.Store(wake) // never free: no barging window this round
			mp.ts.HandOff(t, wake)
		} else {
			mp.owner.Store(nil)
			mp.ts.Released(t) // shed any boost willed through this lock
		}
	}
	mp.refastLocked()
	mp.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}
