package core

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/sim"
)

// This file holds the user-level run queue and the thread execution
// control interfaces: thread_wait, thread_stop, thread_continue,
// thread_priority.

// NumPrioLevels is the number of dispatch-queue levels of the run
// queue, mirroring Solaris's fixed array of per-priority dispatch
// queues (disp_q) indexed by an active-priority bitmap (dqactmap).
// Priorities at or above the cap share the top level: they still beat
// every lower priority, but are FIFO among themselves.
const NumPrioLevels = 128

// prioLevel maps a thread priority onto its dispatch-queue level.
func prioLevel(prio int) int {
	if prio >= NumPrioLevels {
		return NumPrioLevels - 1
	}
	return prio
}

// runQueue is the priority run queue of unbound runnable threads:
// one FIFO ring per priority level plus a bitmap of occupied levels,
// so push, pop, remove and maxPrio are all O(1) — the dispatch hot
// path does no scanning regardless of how many threads are queued.
// Threads are linked intrusively through Thread.rqNext/rqPrev, so
// removal (thread_stop, signal redirect) needs no search either.
// Guarded by Runtime.mu.
type runQueue struct {
	qs     [NumPrioLevels]dispQ
	bitmap [NumPrioLevels / 64]uint64
	n      int
}

// dispQ is one per-priority FIFO ring: head is popped, tail appended.
type dispQ struct {
	head, tail *Thread
}

func (r *runQueue) len() int { return r.n }

// push appends t to the tail of its effective-priority level (FIFO
// among equals) and marks the level active.
func (r *runQueue) push(t *Thread) {
	lvl := prioLevel(int(t.effPrio.Load()))
	t.rqLevel = lvl
	t.rqOn = true
	t.rqNext = nil
	q := &r.qs[lvl]
	if q.tail == nil {
		t.rqPrev = nil
		q.head, q.tail = t, t
		r.bitmap[lvl>>6] |= 1 << (lvl & 63)
	} else {
		t.rqPrev = q.tail
		q.tail.rqNext = t
		q.tail = t
	}
	r.n++
}

// topLevel returns the highest active level, or -1 when empty: one
// bits.Len64 per bitmap word, never a queue scan.
func (r *runQueue) topLevel() int { return r.levelBelow(NumPrioLevels) }

// pop removes and returns the highest-priority thread (FIFO among
// equals), or nil. A chaos source (nil when disabled) may pick a
// different queued thread, exploring dispatch orders the priority rule
// would not produce; the passed-over thread stays queued.
func (r *runQueue) pop(src *chaos.Source) *Thread {
	if r.n == 0 {
		return nil
	}
	if alt := src.RunqReorder(r.n); alt >= 0 {
		if t := r.nth(alt); t != nil {
			r.unlink(t)
			return t
		}
	}
	lvl := r.topLevel()
	t := r.qs[lvl].head
	r.unlink(t)
	return t
}

// levelBelow returns the highest active level below lvl, or -1: with
// topLevel it walks the occupied levels through the bitmap instead of
// visiting all NumPrioLevels queues.
func (r *runQueue) levelBelow(lvl int) int {
	lvl--
	if lvl < 0 {
		return -1
	}
	w := lvl >> 6
	word := r.bitmap[w] & (^uint64(0) >> (63 - lvl&63))
	for word == 0 {
		if w--; w < 0 {
			return -1
		}
		word = r.bitmap[w]
	}
	return w<<6 + bits.Len64(word) - 1
}

// nth returns the alt-th queued thread in priority-then-FIFO order
// (chaos exploration only: this is the one O(n) path, taken solely
// when a chaos source fires).
func (r *runQueue) nth(alt int) *Thread {
	for lvl := r.topLevel(); lvl >= 0; lvl = r.levelBelow(lvl) {
		for t := r.qs[lvl].head; t != nil; t = t.rqNext {
			if alt == 0 {
				return t
			}
			alt--
		}
	}
	return nil
}

// unlink detaches a queued thread from its ring in O(1).
func (r *runQueue) unlink(t *Thread) {
	q := &r.qs[t.rqLevel]
	if t.rqPrev != nil {
		t.rqPrev.rqNext = t.rqNext
	} else {
		q.head = t.rqNext
	}
	if t.rqNext != nil {
		t.rqNext.rqPrev = t.rqPrev
	} else {
		q.tail = t.rqPrev
	}
	if q.head == nil {
		r.bitmap[t.rqLevel>>6] &^= 1 << (t.rqLevel & 63)
	}
	t.rqNext, t.rqPrev = nil, nil
	t.rqOn = false
	r.n--
}

// remove takes t off the queue if it is queued, in O(1) via its
// intrusive links (thread_stop, timed-wait cancel, signal redirect).
func (r *runQueue) remove(t *Thread) bool {
	if !t.rqOn {
		return false
	}
	r.unlink(t)
	return true
}

// requeue moves a queued thread to the tail of the level its effective
// priority now selects (thread_priority, turnstile inheritance), so the
// change takes effect at the next pop. No-op when t is not queued.
func (r *runQueue) requeue(t *Thread) {
	if t.rqOn {
		r.unlink(t)
		r.push(t)
	}
}

// clear empties the queue (process teardown). The threads' states are
// owned by the dying sweep.
func (r *runQueue) clear() {
	for lvl := r.topLevel(); lvl >= 0; lvl = r.levelBelow(lvl) {
		for t := r.qs[lvl].head; t != nil; {
			next := t.rqNext
			t.rqNext, t.rqPrev = nil, nil
			t.rqOn = false
			t = next
		}
		r.qs[lvl] = dispQ{}
	}
	r.bitmap = [len(r.bitmap)]uint64{}
	r.n = 0
}

// maxPrio returns the highest queued priority, or -1 when empty. For
// levels below the clamp this is exact from the bitmap; the top
// (shared) level is scanned for the true maximum.
func (r *runQueue) maxPrio() int {
	lvl := r.topLevel()
	if lvl < 0 {
		return -1
	}
	if lvl < NumPrioLevels-1 {
		return lvl
	}
	best := -1
	for t := r.qs[lvl].head; t != nil; t = t.rqNext {
		if p := int(t.effPrio.Load()); p > best {
			best = p
		}
	}
	return best
}

// PrioCount is one row of a run-queue occupancy report: Count queued
// threads at priority Prio.
type PrioCount struct {
	Prio  int
	Count int
}

// RunqStats reports the run-queue depth and the per-priority occupancy
// (ascending priority), for mtstat and /proc. Counts are by actual
// effective thread priority — what the queue orders by — not queue
// level, so clamped priorities above the level cap report distinctly.
func (m *Runtime) RunqStats() (int, []PrioCount) {
	counts := make(map[int]int)
	m.mu.Lock()
	depth := m.runq.len()
	for lvl := m.runq.topLevel(); lvl >= 0; lvl = m.runq.levelBelow(lvl) {
		for t := m.runq.qs[lvl].head; t != nil; t = t.rqNext {
			counts[int(t.effPrio.Load())]++
		}
	}
	m.mu.Unlock()
	prios := make([]int, 0, len(counts))
	for p := range counts {
		prios = append(prios, p)
	}
	sort.Ints(prios)
	occ := make([]PrioCount, 0, len(prios))
	for _, p := range prios {
		occ = append(occ, PrioCount{Prio: p, Count: counts[p]})
	}
	return depth, occ
}

// ShardStat is the run queue's row of DispatchStats: its instantaneous
// depth plus monotonic push/pop counters. The name, the Shard index
// (always 0) and Stolen (always 0) are left from the sharded queue for
// the frozen bench/ module, which sums the rows.
type ShardStat struct {
	Shard  int
	Depth  int
	Pushes uint64
	Pops   uint64
	Stolen uint64
}

// DispatchStats reports the run queue's depth and traffic counters, as
// one row.
func (m *Runtime) DispatchStats() []ShardStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []ShardStat{{Depth: m.runq.len(), Pushes: m.rqPushes, Pops: m.rqPops}}
}

// DispatchBench measures the run-queue layer in isolation: workers
// goroutines each pass a token through one runtime's queue, a push and
// a pop per operation, each in its own Runtime.mu section as on the
// switch path; iters operations per worker. Returns the wall-clock
// elapsed. The first parameter was a shard count and is ignored; the
// frozen bench/ module calls (1, 1, n).
//
// GOMAXPROCS is set to the worker count for the duration and restored
// before returning.
func DispatchBench(_, workers, iters int) time.Duration {
	var m Runtime
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &Thread{}
			t.effPrio.Store(1)
			for i := 0; i < iters; i++ {
				m.mu.Lock()
				m.runq.push(t)
				m.mu.Unlock()
				m.mu.Lock()
				t = m.runq.pop(nil)
				m.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// Find returns the live thread with the given ID.
func (m *Runtime) Find(id ThreadID) (*Thread, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.threads[id]
	return t, ok
}

// NumThreads reports the number of live (non-zombie) threads.
func (m *Runtime) NumThreads() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nlive
}

// Threads returns a snapshot of the live threads (for /proc and the
// debugger cooperation interface).
func (m *Runtime) Threads() []*Thread {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Thread, 0, len(m.threads))
	for _, t := range m.threads {
		out = append(out, t)
	}
	return out
}

// Wait implements thread_wait: the calling thread blocks until the
// thread with the given ID exits (id == 0: until any THREAD_WAIT
// thread exits) and returns the ID of the exited thread. Per the
// paper it is an error to wait for a thread created without
// THREAD_WAIT, to wait for the current thread, or to have two waits
// on one thread.
func (caller *Thread) Wait(id ThreadID) (ThreadID, error) {
	m := caller.m
	if id == caller.id {
		return 0, ErrSelfWait
	}
	for {
		m.mu.Lock()
		var reg WaitChan
		if id != 0 {
			if z, ok := m.zombies[id]; ok {
				m.reapLocked(z)
				m.mu.Unlock()
				return id, nil
			}
			target, ok := m.threads[id]
			if !ok {
				m.mu.Unlock()
				return 0, ErrNoThread
			}
			if target.flags&ThreadWait == 0 {
				m.mu.Unlock()
				return 0, ErrNotWaited
			}
			if target.waitWC.Len() > 0 {
				m.mu.Unlock()
				return 0, ErrDoubleWait
			}
			reg = target.waitWC
		} else {
			for zid, z := range m.zombies {
				m.reapLocked(z)
				m.mu.Unlock()
				return zid, nil
			}
			reg = m.anyWC
		}
		reg.Enqueue(caller)
		m.mu.Unlock()
		caller.parkSelf(ThreadWaiting)
		caller.Checkpoint()
		// Loop: re-scan for our zombie. A wake permit or spurious
		// wake simply re-checks. Deregister only the caller — a
		// blanket flush here would drop waiters that registered on
		// the same channel while we were waking.
		m.mu.Lock()
		reg.Remove(caller)
		m.mu.Unlock()
	}
}

// reapLocked removes a zombie after a successful wait and recycles its
// Thread shell — all a zombie still holds: retire already returned its
// stack and TLS block to the caches (a programmer-supplied stack was
// dropped there, so the caller may reuse it now, as the paper
// specifies). The shell is not scrubbed until a later Create pops it,
// so the waiter's post-mortem handle reads (Microstates, Errno) stay
// valid until recycling — the same validity window pthread_t gives.
func (m *Runtime) reapLocked(z *Thread) {
	delete(m.zombies, z.id)
	m.pushFreeLocked(z)
}

// Stop implements thread_stop(target): it prevents the target from
// running and does not return until the target is stopped. caller may
// be nil when the request comes from outside any thread (tests,
// debugger). Stopping the calling thread stops it immediately.
func (caller *Thread) Stop(target *Thread) error {
	m := caller.m
	if target == caller {
		m.mu.Lock()
		target.setReq(tfStopReq)
		m.mu.Unlock()
		target.parkSelf(ThreadStopped)
		return nil
	}
	m.mu.Lock()
	if target.state == ThreadZombie {
		m.mu.Unlock()
		return ErrNoThread
	}
	target.setReq(tfStopReq)
	switch target.state {
	case ThreadStopped:
		m.mu.Unlock()
		return nil
	case ThreadRunnable:
		if m.runq.remove(target) {
			target.state = ThreadStopped
			target.msSwitchLocked(m.kern.Clock().Now(), MSStopped)
			m.mu.Unlock()
			return nil
		}
		// Bound and between queues: fall through to waiting.
	case ThreadRunning:
		target.setReq(tfPreempt)
	}
	// Wait until the target parks itself as stopped at its next
	// checkpoint. The caller parks; the target's transition wakes
	// stop-waiters.
	a := target.auxb()
	a.stopWaiters = append(a.stopWaiters, caller)
	m.mu.Unlock()
	if target.bound() {
		// Bound targets stop via their own checkpoint too; the
		// kernel cannot stop a single LWP asynchronously (the
		// simulation is cooperative), so the path is the same.
		m.kern.Unpark(target.bndLWP) // kick it through a park, if parked
	}
	for {
		m.mu.Lock()
		stopped := target.state == ThreadStopped || target.state == ThreadZombie
		m.mu.Unlock()
		if stopped {
			return nil
		}
		caller.parkSelf(ThreadWaiting)
		caller.Checkpoint()
	}
}

// Continue implements thread_continue: it (re)starts a stopped
// thread. Its effect may be delayed (paper).
func (m *Runtime) Continue(target *Thread) error {
	m.mu.Lock()
	if target.state == ThreadZombie {
		m.mu.Unlock()
		return ErrNoThread
	}
	target.clearReq(tfStopReq)
	stopped := target.state == ThreadStopped
	if stopped {
		target.state = ThreadSleeping // so unparkInto re-enqueues
	}
	m.mu.Unlock()
	if stopped {
		m.unparkInto(target)
	}
	return nil
}

// SetPriority implements thread_priority: it sets the target's base
// priority and returns the old one. Priority must be >= 0; increasing
// values give increasing scheduling priority. The effective priority
// is recomputed as max(base, held-turnstile boosts), and setEffLocked
// moves the thread wherever priority orders it — its run-queue level
// if queued runnable, and its position within its sleep-queue bucket
// if blocked (so a raised sleeper wakes ahead of its old equals, not
// at its stale FIFO slot).
func (m *Runtime) SetPriority(target *Thread, prio int) (int, error) {
	if prio < 0 {
		return 0, ErrBadPrio
	}
	m.mu.Lock()
	old := target.prio
	target.prio = prio
	eff := prio
	if h := m.heldMaxLocked(target); h > eff {
		eff = h
	}
	m.setEffLocked(target, eff)
	m.mu.Unlock()
	if target.bound() {
		// Map the effective priority onto the bound LWP's class
		// priority so the kernel dispatcher honours it.
		p := eff
		if p > sim.MaxUserPrio {
			p = sim.MaxUserPrio
		}
		if err := m.kern.Priocntl(target.bndLWP, target.bndLWP.Class(), p); err != nil {
			return old, err
		}
	}
	return old, nil
}

// Priority returns the thread's current base priority (what
// thread_priority set; see EffPriority for the inherited one).
func (t *Thread) Priority() int {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.prio
}
