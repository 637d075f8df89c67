package sim

import (
	"time"

	"sunosmt/internal/trace"
)

// WaitQ is a kernel sleep queue. LWPs block on wait queues inside
// system calls (pipe I/O, poll, waitpid, process-shared
// synchronization variables, bound-thread sleeps). Wakeups are FIFO.
// The queue is an intrusive doubly-linked list through the LWPs'
// wqNext/wqPrev fields, so timeout and signal-interrupt removal of a
// mid-queue sleeper is O(1).
//
// The zero value is ready to use. A WaitQ must not be copied after
// first use.
type WaitQ struct {
	name       string
	head, tail *LWP // guarded by Kernel.mu
	n          int
}

// NewWaitQ returns a named wait queue (the name appears in traces and
// /proc wchan output).
func NewWaitQ(name string) *WaitQ { return &WaitQ{name: name} }

// Name returns the queue's name.
func (w *WaitQ) Name() string { return w.name }

func (w *WaitQ) add(l *LWP) {
	l.wqPrev = w.tail
	l.wqNext = nil
	if w.tail != nil {
		w.tail.wqNext = l
	} else {
		w.head = l
	}
	w.tail = l
	w.n++
}

func (w *WaitQ) remove(l *LWP) {
	if l.wq != w {
		return
	}
	if l.wqPrev != nil {
		l.wqPrev.wqNext = l.wqNext
	} else {
		w.head = l.wqNext
	}
	if l.wqNext != nil {
		l.wqNext.wqPrev = l.wqPrev
	} else {
		w.tail = l.wqPrev
	}
	l.wqNext, l.wqPrev = nil, nil
	w.n--
}

// nth returns the i'th queued LWP (head = 0). Only the chaos
// wake-reorder path walks the list.
func (w *WaitQ) nth(i int) *LWP {
	l := w.head
	for ; i > 0 && l != nil; i-- {
		l = l.wqNext
	}
	return l
}

// Len reports how many LWPs are blocked on the queue.
func (w *WaitQ) Len(k *Kernel) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return w.n
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
// *Unwind if the process dies while sleeping.
//
// cond is the commit condition, evaluated under the kernel lock
// immediately before the LWP is queued: if it returns false the sleep
// is abandoned and SleepIf returns (WakeNormal, false). This is the
// futex-style race-free block every wait for another LWP's action
// uses — the waker's state change and Wakeup cannot slip between the
// caller's check and the enqueue. cond must not call back into the
// kernel. Only a sleep nothing but its timeout ends passes nil.
func (k *Kernel) SleepIf(l *LWP, wq *WaitQ, cond func() bool, o SleepOpts) (WakeResult, bool) {
	spinFor(k.cfg.KernelSwitchCost) // simulated trap entry + switch
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	// Chaos: an interruptible sleep may fail with EINTR even though
	// no signal is pending, as real kernels are permitted to do.
	// Injection happens only at sites whose callers declared the
	// sleep interruptible, so every caller already handles EINTR.
	if o.Interruptible && (k.deliverableLocked(l) != 0 || k.chaos.EINTR()) {
		return WakeInterrupted, false
	}
	if cond != nil && !cond() {
		return WakeNormal, false
	}
	p := l.proc
	k.releaseCPULocked(l, now, LWPSleeping)
	l.wq = wq
	wq.add(l)
	l.woken = false
	l.wakeRes = WakeNormal
	l.interruptible = o.Interruptible
	indefinite := o.Indefinite || k.cfg.SignalOnAnyBlock
	if indefinite {
		l.indefinite = true
		p.indefSleepers++
		k.maybeSigwaitingLocked(p, now)
		// Chaos: randomize SIGWAITING timing by posting it early,
		// before the true all-LWPs-blocked condition holds. Early
		// posts are the safe direction: the library's growth hook
		// re-checks whether more LWPs are actually needed, while a
		// delayed post could deadlock the pool.
		if k.chaos.Sigwaiting() {
			k.postSignalLocked(p, SIGWAITING, nil, now)
		}
	}
	if o.Timeout > 0 {
		l.sleepDeadline = now + o.Timeout
		if l.sleepTimer == nil {
			l.sleepTimer = k.clock.AfterFunc(o.Timeout, l.sleepTimeout)
		} else {
			l.sleepTimer.Reset(o.Timeout)
		}
	}
	for !l.woken {
		l.cond.Wait()
		if reason, bad := k.mustUnwindLocked(l); bad {
			k.unwindLocked(l, reason)
		}
	}
	if l.sleepDeadline != 0 {
		l.sleepDeadline = 0
		l.sleepTimer.Stop()
	}
	res := l.wakeRes
	k.makeRunnableLocked(l, k.clock.Now())
	k.waitOnCPULocked(l)
	return res, true
}

// sleepTimeout is the callback of the LWP's sleep timer. The timer is
// reused from sleep to sleep, so a call can arrive late — started by the
// clock for one sleep, it gets k.mu only after the LWP woke some other
// way and slept again — or, under chaos jitter, early. It times out only
// a sleep whose deadline has passed; an early call re-arms the timer
// for what remains.
func (l *LWP) sleepTimeout() {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state != LWPSleeping || l.woken || l.sleepDeadline == 0 {
		return
	}
	now := k.clock.Now()
	if rem := l.sleepDeadline - now; rem > 0 {
		l.sleepTimer.Reset(rem)
		return
	}
	k.wakeLWPLocked(l, now, WakeTimeout)
}

// wakeLWPLocked pulls a sleeping LWP off its wait queue and marks it
// woken with the given result. The LWP's own goroutine re-enters the
// run queue when it observes the wake, on a reading of its own: now
// only stamps the ring record, so an entry that does nothing but wake
// or post passes k.rings.Now() and reads no clock with tracing off.
func (k *Kernel) wakeLWPLocked(l *LWP, now time.Duration, res WakeResult) {
	if l.wq != nil {
		l.wq.remove(l)
		l.wq = nil
	}
	if l.indefinite {
		l.proc.indefSleepers--
		l.indefinite = false
	}
	l.interruptible = false
	l.woken = true
	l.wakeRes = res
	// The process is no longer all-blocked.
	l.proc.sigwaitingOn = false
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
// the order given, in one kernel section. An empty queue costs nothing,
// traced or not.
func (k *Kernel) WakeupAll(wqs ...*WaitQ) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, wq := range wqs {
		if wq.n > 0 {
			k.wakeupLocked(wq, -1, k.rings.Now())
		}
	}
}

func (k *Kernel) wakeupLocked(wq *WaitQ, n int, now time.Duration) int {
	if n < 0 {
		n = wq.n
	}
	count := 0
	for count < n && wq.n > 0 {
		// Chaos: wake a non-head waiter, breaking FIFO order. Any
		// queued LWP is a legitimate wake target; callers built on
		// sleep queues re-check their condition after waking.
		l := wq.head
		if alt := k.chaos.WakeReorder(wq.n); alt > 0 {
			if cand := wq.nth(alt); cand != nil {
				l = cand
			}
		}
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
	l.syscallStart = now
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
