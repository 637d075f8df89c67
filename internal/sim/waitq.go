package sim

import (
	"sync/atomic"
	"time"

	"sunosmt/internal/dispq"
	"sunosmt/internal/trace"
)

// WaitQ is a kernel sleep queue. LWPs block on wait queues inside
// system calls (pipe I/O, poll, waitpid, process-shared
// synchronization variables, bound-thread sleeps). Wakeups are FIFO.
// The queue is an intrusive list through the LWPs' wqLink, so timeout
// and signal-interrupt removal of a mid-queue sleeper is O(1).
//
// The zero value is ready to use. A WaitQ must not be copied after
// first use.
type WaitQ struct {
	name string
	q    dispq.List[LWP] // guarded by Kernel.mu
	// n is written under Kernel.mu and read without it by WakeupAll,
	// which returns at once when every queue it is given reads 0.
	n atomic.Int32
}

// NewWaitQ returns a named wait queue (the name appears in traces and
// /proc wchan output).
func NewWaitQ(name string) *WaitQ { return &WaitQ{name: name} }

// Name returns the queue's name.
func (w *WaitQ) Name() string { return w.name }

// leaveWaitQLocked takes l off the wait queue it sleeps on, if any.
func (l *LWP) leaveWaitQLocked() {
	if w := l.wq; w != nil {
		w.q.Remove(&l.wqLink)
		w.n.Add(-1)
		l.wq = nil
	}
}

// Len reports how many LWPs are blocked on the queue.
func (w *WaitQ) Len(k *Kernel) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return int(w.n.Load())
}

// SleepOpts controls a kernel sleep.
type SleepOpts struct {
	// Interruptible sleeps are broken by signal delivery; the
	// sleep returns WakeInterrupted and the system call should
	// fail with EINTR.
	Interruptible bool
	// Indefinite marks the sleep as waiting for an external event
	// of unbounded latency (e.g. poll). When every live LWP of a
	// process is in an indefinite wait, the kernel sends the
	// process SIGWAITING.
	Indefinite bool
	// Timeout, if positive, bounds the sleep.
	Timeout time.Duration
}

// SleepIf blocks the LWP on wq until Wakeup, signal interruption, or
// timeout, and reports true. The LWP's CPU is released for the
// duration; on return the LWP holds a CPU again. SleepIf panics with
// *Unwind if the process dies while sleeping. The last result is the
// clock reading the caller continues with: the one taken on waking, or
// a fresh one if the LWP then had to wait for a CPU (the entry's own
// when it did not sleep).
//
// cond is the commit condition, evaluated under the kernel lock with
// the LWP already queued on wq: if it returns false the LWP is taken
// off again and SleepIf returns (WakeNormal, false). This is the
// futex-style race-free block every wait for another LWP's action
// uses — the waker's state change and Wakeup cannot slip between the
// caller's check and the enqueue, and a waker that finds wq empty
// without the lock (WakeupAll) made its change before cond read it.
// cond must not call back into the kernel. Only a sleep nothing but
// its timeout ends passes nil.
//
// An indefinite sleep that leaves every LWP of the process blocked
// runs the process's SIGWAITING hook itself, once the sleep is
// committed, with k.mu dropped; a wake that lands meanwhile is seen
// when it retakes the lock.
func (k *Kernel) SleepIf(l *LWP, wq *WaitQ, cond func() bool, o SleepOpts) (WakeResult, bool, time.Duration) {
	spinFor(k.cfg.KernelSwitchCost) // simulated trap entry + switch
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	// Chaos: an interruptible sleep may fail with EINTR even though
	// no signal is pending, as real kernels are permitted to do.
	// Injection happens only at sites whose callers declared the
	// sleep interruptible, so every caller already handles EINTR.
	if o.Interruptible && (k.deliverableLocked(l) != 0 || k.chaos.EINTR()) {
		return WakeInterrupted, false, now
	}
	l.wq = wq
	wq.q.PushBack(&l.wqLink, l)
	wq.n.Add(1)
	if cond != nil && !cond() {
		l.leaveWaitQLocked()
		return WakeNormal, false, now
	}
	p := l.proc
	k.releaseCPULocked(l, now, LWPSleeping)
	l.woken = false
	l.wakeRes = WakeNormal
	l.interruptible = o.Interruptible
	var hook func()
	if o.Indefinite || k.cfg.SignalOnAnyBlock {
		l.indefinite = true
		p.indefSleepers++
		p.sleeperPosts = true
		k.maybeSigwaitingLocked(p, now)
		// Chaos: randomize SIGWAITING timing by posting it early,
		// before the true all-LWPs-blocked condition holds. Early
		// posts are the safe direction: the library's growth hook
		// re-checks whether more LWPs are actually needed, while a
		// delayed post could deadlock the pool.
		if k.chaos.Sigwaiting() {
			k.postSignalLocked(p, SIGWAITING, nil, now)
		}
		p.sleeperPosts = false
		if p.hookDue {
			p.hookDue = false
			hook = p.sigwaitingHook
		}
	}
	if o.Timeout > 0 {
		k.calloutAddLocked(l, now+o.Timeout, now)
	}
	if hook != nil {
		k.mu.Unlock()
		hook()
		k.mu.Lock()
		if reason, bad := k.mustUnwindLocked(l); bad {
			k.unwindLocked(l, reason)
		}
	}
	for !l.woken {
		l.cond.Wait()
		if reason, bad := k.mustUnwindLocked(l); bad {
			k.unwindLocked(l, reason)
		}
	}
	res := l.wakeRes
	now = k.clock.Now()
	k.makeRunnableLocked(l, now)
	waited := l.state != LWPOnCPU
	k.waitOnCPULocked(l)
	if waited {
		now = k.clock.Now()
	}
	return res, true, now
}

// wakeLWPLocked pulls a sleeping LWP off its wait queue and marks it
// woken with the given result. The LWP's own goroutine re-enters the
// run queue when it observes the wake, on a reading of its own: now
// only stamps the ring record, so an entry that does nothing but wake
// or post passes k.rings.Now() and reads no clock with tracing off.
func (k *Kernel) wakeLWPLocked(l *LWP, now time.Duration, res WakeResult) {
	l.leaveWaitQLocked()
	k.calloutRemoveLocked(l)
	if l.indefinite {
		l.proc.indefSleepers--
		l.indefinite = false
	}
	l.interruptible = false
	l.woken = true
	l.wakeRes = res
	// The process is no longer all-blocked.
	l.proc.clearAllBlocked()
	k.rings.RecordAt(now, -1, trace.EvWakeup, int(l.proc.pid), int(l.id), 0, uint64(res))
	l.cond.Broadcast()
}

// Wakeup wakes up to n LWPs blocked on wq (FIFO order) and returns
// how many were woken. n < 0 wakes all.
func (k *Kernel) Wakeup(wq *WaitQ, n int) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.wakeupLocked(wq, n, k.rings.Now())
}

// WakeupAll wakes every LWP blocked on each of the queues, taken in
// the order given, in one kernel section. When every queue is empty it
// takes no kernel lock: a sleeper is queued before its commit condition
// reads the state the caller changed (see SleepIf), so a queue that
// reads empty here holds no one who could have missed the change.
func (k *Kernel) WakeupAll(wqs ...*WaitQ) {
	empty := true
	for _, wq := range wqs {
		empty = empty && wq.n.Load() == 0
	}
	if empty {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, wq := range wqs {
		if wq.n.Load() > 0 {
			k.wakeupLocked(wq, -1, k.rings.Now())
		}
	}
}

func (k *Kernel) wakeupLocked(wq *WaitQ, n int, now time.Duration) int {
	if n < 0 {
		n = int(wq.n.Load())
	}
	count := 0
	for count < n && wq.n.Load() > 0 {
		// Chaos: wake a non-head waiter, breaking FIFO order. Any
		// queued LWP is a legitimate wake target; callers built on
		// sleep queues re-check their condition after waking.
		l := wq.q.Nth(max(k.chaos.WakeReorder(int(wq.n.Load())), 0))
		k.wakeLWPLocked(l, now, WakeNormal)
		count++
	}
	return count
}

// Park idles the LWP until Unpark. The threads library parks pool
// LWPs that have no thread to run (SunOS's lwp_park). A prior Unpark
// leaves a permit that makes the next Park return immediately, so the
// park/unpark pair is race-free.
func (k *Kernel) Park(l *LWP) {
	spinFor(k.cfg.KernelSwitchCost) // simulated trap entry + switch
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	if l.parkPermit {
		l.parkPermit = false
		return
	}
	k.releaseCPULocked(l, now, LWPParked)
	l.woken = false
	for !l.woken {
		l.cond.Wait()
		if reason, bad := k.mustUnwindLocked(l); bad {
			k.unwindLocked(l, reason)
		}
	}
	k.makeRunnableLocked(l, k.clock.Now())
	k.waitOnCPULocked(l)
}

// Unpark releases a parked LWP, or leaves a permit if the LWP is not
// currently parked.
func (k *Kernel) Unpark(l *LWP) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state == LWPParked && !l.woken {
		l.woken = true
		k.rings.Record(-1, trace.EvWakeup, int(l.proc.pid), int(l.id), 0, uint64(WakeNormal))
		l.cond.Broadcast()
		return
	}
	l.parkPermit = true
}

// SyscallEnter marks the LWP as executing inside the kernel and
// returns the entry's clock reading, for a call that times itself (a
// poll deadline). The thread stays bound to its LWP for the duration of
// the call (paper: "When a thread executes a kernel call, it remains
// bound to the same lightweight process for the duration of the kernel
// call").
func (k *Kernel) SyscallEnter(l *LWP) time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	k.chargeAtLocked(l, now) // close out user time
	l.inSyscall = true
	return now
}

// SyscallExit marks the LWP as back in user mode.
func (k *Kernel) SyscallExit(l *LWP) {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clock.Now()
	k.chargeAtLocked(l, now) // close out system time
	l.inSyscall = false
	k.checkpointLocked(l, now)
}
