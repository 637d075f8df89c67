package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"sunosmt/internal/sim"
)

// This file holds the run queue's reports and the thread execution
// control interfaces: thread_wait, thread_stop, thread_continue,
// thread_priority.

// PrioCount is one row of a run-queue occupancy report: Count queued
// threads at priority Prio.
type PrioCount struct {
	Prio  int
	Count int
}

// RunqStats reports the run-queue depth and the per-priority occupancy
// (ascending priority), for mtstat and /proc. Counts are by actual
// effective thread priority, not queue level, so priorities clamped
// onto the top level report distinctly.
func (m *Runtime) RunqStats() (int, []PrioCount) {
	counts := make(map[int]int)
	m.mu.Lock()
	depth := m.runq.Len()
	m.runq.Walk(func(t *Thread) { counts[int(t.effPrio.Load())]++ })
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
	return []ShardStat{{Depth: m.runq.Len(), Pushes: m.rqPushes, Pops: m.rqPops}}
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
			for i := 0; i < iters; i++ {
				m.mu.Lock()
				m.runq.Push(&t.rq, t, 1)
				m.mu.Unlock()
				m.mu.Lock()
				t = m.runq.Nth(0, nil)
				m.runq.Remove(&t.rq)
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
		if m.runq.Remove(&target.rq) {
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
