package tsync

import (
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
)

// Cond is a condition variable. It must be used with a Mutex held,
// forming a monitor; because the reacquisition of the mutex can be
// blocked by other threads, the waited-for condition must be
// re-tested in a loop, exactly as the paper's usage example shows.
// The zero value is a valid condition variable.
type Cond struct {
	mu      sync.Mutex
	waiters waitq
	name    string
	bi      atomic.Pointer[core.BlockInfo] // cached wait-for edge; see blockInfo

	// sv (process-shared variant): word 0 is the wake generation
	// counter.
	sv *usync.Var
}

// CondShmSize is the number of bytes a process-shared condition
// variable occupies in mapped memory.
const CondShmSize = 8

// InitShared binds the condition variable to shared state —
// the USYNC_PROCESS variant (cv_init with THREAD_SYNC_SHARED).
func (cv *Cond) InitShared(sv *usync.Var) {
	cv.sv = sv
	cv.bi.Store(nil) // the name changed
}

// Name returns the condition variable's identity for diagnostics.
func (cv *Cond) Name() string {
	if cv.sv != nil {
		return cv.sv.Name()
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	return cv.nameLocked()
}

func (cv *Cond) nameLocked() string {
	if cv.sv != nil {
		return cv.sv.Name()
	}
	if cv.name == "" {
		cv.name = autoName("cond")
	}
	return cv.name
}

// blockInfo is the wait-for edge for threads parked in Wait. A
// condition wait has no owner — someone must Signal — so it never
// contributes an edge to deadlock cycles, but it does show up in
// lstatus as what the thread is blocked on. Built once and shared by
// every waiter, so waiting allocates nothing (see edgeOf).
func (cv *Cond) blockInfo() *core.BlockInfo {
	return edgeOf(&cv.bi, &cv.mu, func() *core.BlockInfo {
		return &core.BlockInfo{Kind: "cond", Name: cv.nameLocked()}
	})
}

// Wait blocks until the condition is signalled (cv_wait): it releases
// mp before blocking and reacquires it before returning. Spurious
// wakeups are possible; callers loop.
func (cv *Cond) Wait(t *core.Thread, mp *Mutex) {
	if cv.sv != nil {
		cv.waitShared(t, mp, 0)
		return
	}
	cv.mu.Lock()
	cv.waiters.push(t)
	cv.mu.Unlock()
	mp.Exit(t)
	if chaosOf(t).SpuriousWakeup() {
		t.Checkpoint() // chaos: spurious wakeup, park elided
	} else {
		t.NoteBlocked(cv.blockInfo())
		t.Park()
		t.NoteUnblocked()
	}
	// Deregister in case the wake was a permit consumed elsewhere
	// (stop/continue interleavings); harmless if already popped.
	cv.waiters.removeUnder(&cv.mu, t)
	mp.Enter(t)
	t.Checkpoint()
}

// TimedWait is Wait with a timeout bound, an extension of the shipped
// library (cond_timedwait). It reports false on timeout. Only
// process-shared variables support exact kernel timeouts; unshared
// variables approximate with a kernel timer wake.
func (cv *Cond) TimedWait(t *core.Thread, mp *Mutex, d time.Duration) bool {
	if cv.sv != nil {
		return cv.waitShared(t, mp, d)
	}
	if d <= 0 {
		cv.Wait(t, mp)
		return true
	}
	// Arm a wake that fires if we are still queued at the deadline.
	fired := make(chan struct{})
	timer := t.Runtime().Kernel().Clock().AfterFunc(d, func() {
		close(fired)
		if cv.waiters.removeUnder(&cv.mu, t) {
			t.Unpark()
		}
	})
	cv.Wait(t, mp)
	timer.Stop()
	select {
	case <-fired:
		return false
	default:
		return true
	}
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
// through the mapped word with a race-free kernel commit. Returns
// false on timeout.
func (cv *Cond) waitShared(t *core.Thread, mp *Mutex, d time.Duration) bool {
	var gen uint64
	cv.sv.Atomically(func(w usync.Words) { gen = w.Load(0) })
	mp.Exit(t)
	opts := usync.SleepOpts{Indefinite: d <= 0} // see Sema.pShared
	if d > 0 {
		opts.Timeout = d
	}
	t.NoteBlocked(cv.blockInfo())
	res, slept := cv.sv.SleepWhile(t.LWP(), func(w usync.Words) bool {
		return w.Load(0) == gen // no signal since we decided to wait
	}, opts)
	t.NoteUnblocked()
	mp.Enter(t)
	t.Checkpoint()
	return !(slept && res == sim.WakeTimeout)
}
