package tsync

import (
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/usync"
)

// Cond is a condition variable. It must be used with a Mutex held,
// forming a monitor; because the reacquisition of the mutex can be
// blocked by other threads, the waited-for condition must be
// re-tested in a loop, exactly as the paper's usage example shows.
// The zero value is a valid condition variable.
//
// A condition wait has no owner — someone must Signal — so it never
// contributes an edge to deadlock cycles, but it does show up in
// lstatus as what the thread is blocked on.
type Cond struct {
	header
	waiters waitq
}

// CondShmSize is the number of bytes a process-shared condition
// variable occupies in mapped memory: word 0 = wake generation.
const CondShmSize = 8

// InitShared binds the condition variable to shared state —
// the USYNC_PROCESS variant (cv_init with THREAD_SYNC_SHARED).
func (cv *Cond) InitShared(sv *usync.Var) { cv.bind(sv, condKind) }

// Name returns the condition variable's identity for diagnostics.
func (cv *Cond) Name() string { return cv.nameOf(condKind) }

// Wait blocks until the condition is signalled (cv_wait): it releases
// mp before blocking and reacquires it before returning. Spurious
// wakeups are possible; callers loop.
func (cv *Cond) Wait(t *core.Thread, mp *Mutex) { cv.TimedWait(t, mp, 0) }

// TimedWait is Wait with a timeout bound, an extension of the shipped
// library (cond_timedwait). It reports false on timeout; d <= 0 means
// no bound. A waiter that a Signal has dequeued consumed that signal
// and reports true, even if the deadline passes before it runs again.
func (cv *Cond) TimedWait(t *core.Thread, mp *Mutex, d time.Duration) bool {
	if cv.sv != nil {
		return cv.waitShared(t, mp, d)
	}
	clk, deadline := deadlineOf(t, d)
	cv.mu.Lock()
	cv.waiters.push(t)
	cv.mu.Unlock()
	mp.Exit(t)
	timedOut := false
	if chaosOf(t).SpuriousWakeup() {
		t.Checkpoint() // chaos: spurious wakeup, park elided
	} else {
		var dequeue func() bool // timed waits only: Wait allocates nothing
		if d > 0 {
			dequeue = func() bool { return cv.waiters.removeUnder(&cv.mu, t) }
		}
		timedOut = block(t, cv.edge(condKind, nil, nil, ""), false, clk, deadline, dequeue)
	}
	// Deregister in case the wake was a permit consumed elsewhere
	// (stop/continue interleavings); harmless if already popped.
	cv.waiters.removeUnder(&cv.mu, t)
	mp.Enter(t)
	t.Checkpoint()
	return !timedOut
}

// Signal wakes one waiter (cv_signal). There is no guaranteed order
// of mutex acquisition among woken threads.
func (cv *Cond) Signal(t *core.Thread) {
	if cv.sv != nil {
		cv.sv.Atomically(func(w usync.Words) { w.Store(0, w.Load(0)+1) })
		cv.sv.Wake(1)
		return
	}
	cv.mu.Lock()
	wake := cv.waiters.pop()
	cv.mu.Unlock()
	if wake != nil {
		wake.Unpark()
	}
}

// Broadcast wakes all waiters (cv_broadcast). The paper cautions that
// all of them re-contend for the mutex, so it should be used with
// care — e.g. when variable amounts of resources are released.
func (cv *Cond) Broadcast(t *core.Thread) {
	if cv.sv != nil {
		cv.sv.Atomically(func(w usync.Words) { w.Store(0, w.Load(0)+1) })
		cv.sv.Wake(-1)
		return
	}
	cv.mu.Lock()
	all := cv.waiters.popAll()
	cv.mu.Unlock()
	// Batch: all waiters enter the run queue in one pass over the
	// scheduler lock instead of one unpark round-trip each.
	core.UnparkAll(all)
}

// Waiters reports how many threads are blocked (debugging aid).
func (cv *Cond) Waiters() int {
	if cv.sv != nil {
		return cv.sv.Waiters()
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return cv.waiters.len()
}

// waitShared implements the process-shared wait: generation counting
// through the mapped word with a race-free kernel commit. An untimed
// wait is indefinite, like Sema.P's. Returns false on timeout.
func (cv *Cond) waitShared(t *core.Thread, mp *Mutex, d time.Duration) bool {
	var gen uint64
	cv.sv.Atomically(func(w usync.Words) { gen = w.Load(0) })
	mp.Exit(t)
	timedOut := cv.sleepShared(t, condKind, func(w usync.Words) bool {
		return w.Load(0) == gen // no signal since we decided to wait
	}, usync.SleepOpts{Indefinite: d <= 0, Timeout: d})
	mp.Enter(t)
	t.Checkpoint()
	return !timedOut
}
