package ktime

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// FastForward is a Clock that follows wall time while the system is
// busy and leaps over idle waits: when the registered idle predicate
// reports that nothing can make progress until a timer fires, the
// clock jumps straight to the earliest pending deadline and fires it,
// so sleep-heavy scenarios and seeded chaos sweeps run at CPU speed
// instead of wall-clock speed.
//
// Virtual time is wall time plus an accumulated skip:
//
//	Now() = time.Since(boot) + skip
//
// so time never stalls (a busy system observes ordinary wall-clock
// progress, and unexpired timers still fire in real time through a
// single host timer armed for the earliest deadline) and never runs
// backwards (skip only grows). Timers fire in deadline order, FIFO
// among equal deadlines, exactly like Manual.Advance.
//
// The jump machinery is driven by Kick, which the simulated kernel
// calls whenever its last schedulable LWP goes to sleep. A jump is
// only a *hint* that idle time can be skipped: the idle predicate is
// re-checked before every leap, and a jump that races with new host
// activity merely means some idle virtual time passed — which is
// always a legal observation, timers and timeouts being permitted to
// fire any time after their deadline.
type FastForward struct {
	boot time.Time
	skip atomic.Int64 // ns of virtual time leapt over

	mu     sync.Mutex
	seq    uint64
	timers ffHeap
	host   *time.Timer   // armed for the earliest wall deadline
	hostAt time.Duration // virtual deadline the host timer is armed for

	idle    atomic.Pointer[func() bool]
	onJump  atomic.Pointer[func(from, to time.Duration)]
	enabled atomic.Bool

	running atomic.Bool // an advance goroutine is live
	pending atomic.Bool // a Kick arrived while advancing

	jumps   atomic.Uint64
	skipped atomic.Int64 // == skip, kept separately for Stats symmetry
}

// NewFastForward returns an enabled fast-forward clock with Now()==0
// at the moment of the call. It behaves exactly like a Real clock
// until SetIdle registers an idle predicate and Kick is called.
func NewFastForward() *FastForward {
	ff := &FastForward{boot: time.Now()}
	ff.enabled.Store(true)
	return ff
}

// Now implements Clock. Lock-free: hot paths read it on every
// scheduler transition.
func (ff *FastForward) Now() time.Duration {
	return time.Since(ff.boot) + time.Duration(ff.skip.Load())
}

// AfterFunc implements Clock. Arming a timer kicks the advancer, so a
// timer armed while the system is already idle (including from inside
// another timer's callback during a jump) is immediately eligible to
// be leapt to.
func (ff *FastForward) AfterFunc(d time.Duration, fn func()) Timer {
	ff.mu.Lock()
	ff.seq++
	t := &ffTimer{owner: ff, when: ff.Now() + d, seq: ff.seq, fn: fn}
	heap.Push(&ff.timers, t)
	ff.rearmHostLocked()
	ff.mu.Unlock()
	ff.Kick()
	return t
}

// SetIdle registers the predicate consulted before every jump: it must
// report whether every schedulable entity is blocked waiting for time
// to pass. The predicate is called without the clock lock held and may
// take its own locks. The simulated kernel registers its
// all-LWPs-idle check here.
func (ff *FastForward) SetIdle(idle func() bool) {
	if idle == nil {
		ff.idle.Store(nil)
		return
	}
	ff.idle.Store(&idle)
}

// SetOnJump registers a hook called (without the clock lock) after
// every jump with the virtual time leapt from and to. The mt layer
// records an EvFastForward ring event here.
func (ff *FastForward) SetOnJump(fn func(from, to time.Duration)) {
	if fn == nil {
		ff.onJump.Store(nil)
		return
	}
	ff.onJump.Store(&fn)
}

// SetEnabled turns jumping on or off. Disabled, the clock keeps
// perfect wall time (plus whatever skip already accumulated) and
// timers fire in real time; pending timers are never lost.
func (ff *FastForward) SetEnabled(on bool) {
	ff.enabled.Store(on)
	if on {
		ff.Kick()
	}
}

// Kick prompts the clock to check for skippable idle time. Callers
// may hold arbitrary locks: the check runs on its own goroutine.
// Kick on a nil clock is a no-op.
func (ff *FastForward) Kick() {
	if ff == nil {
		return
	}
	if !ff.enabled.Load() || ff.idle.Load() == nil {
		return
	}
	ff.pending.Store(true)
	if ff.running.CompareAndSwap(false, true) {
		go ff.advanceLoop()
	}
}

// Stats reports how many jumps have occurred and how much idle
// virtual time they skipped in total.
func (ff *FastForward) Stats() (jumps uint64, skipped time.Duration) {
	return ff.jumps.Load(), time.Duration(ff.skipped.Load())
}

// PendingTimers reports how many timers are armed and not yet fired.
func (ff *FastForward) PendingTimers() int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	n := 0
	for _, t := range ff.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// advanceLoop drains pending kicks, jumping and firing until the
// system is no longer idle or no timers remain. The running/pending
// handshake guarantees a Kick during a drain is never lost.
func (ff *FastForward) advanceLoop() {
	for {
		for ff.pending.Swap(false) {
			for ff.step() {
			}
		}
		ff.running.Store(false)
		if !ff.pending.Load() || !ff.running.CompareAndSwap(false, true) {
			return
		}
	}
}

// step performs one jump-and-fire round. It reports whether it fired
// anything (so the caller loops: firing may leave the system idle
// again with more timers pending).
func (ff *FastForward) step() bool {
	if !ff.enabled.Load() {
		return false
	}
	idlep := ff.idle.Load()
	if idlep == nil || !(*idlep)() {
		return false
	}
	ff.mu.Lock()
	for len(ff.timers) > 0 && ff.timers[0].stopped {
		heap.Pop(&ff.timers)
	}
	if len(ff.timers) == 0 {
		ff.mu.Unlock()
		return false
	}
	now := ff.Now()
	var from, to time.Duration
	jumped := false
	if t := ff.timers[0]; t.when > now {
		delta := t.when - now
		ff.skip.Add(int64(delta))
		ff.skipped.Add(int64(delta))
		ff.jumps.Add(1)
		from, to = now, t.when
		jumped = true
	}
	fired := ff.fireDueLocked()
	ff.rearmHostLocked()
	ff.mu.Unlock()
	if jumped {
		if hook := ff.onJump.Load(); hook != nil {
			(*hook)(from, to)
		}
	}
	return jumped || fired
}

// hostFire is the host timer's callback: fire whatever is due at the
// current virtual time (wall time caught up with a deadline).
func (ff *FastForward) hostFire() {
	ff.mu.Lock()
	ff.fireDueLocked()
	ff.rearmHostLocked()
	ff.mu.Unlock()
}

// fireDueLocked pops and runs every timer whose deadline has passed,
// in deadline-then-arming order. Callbacks run with the clock
// unlocked (they re-enter the kernel, which may arm new timers).
func (ff *FastForward) fireDueLocked() bool {
	fired := false
	for len(ff.timers) > 0 && ff.timers[0].when <= ff.Now() {
		t := heap.Pop(&ff.timers).(*ffTimer)
		if t.stopped {
			continue
		}
		t.fired = true
		fired = true
		fn := t.fn
		ff.mu.Unlock()
		fn()
		ff.mu.Lock()
	}
	return fired
}

// rearmHostLocked points the single host timer at the earliest
// pending deadline so unskipped waits still fire in real time.
func (ff *FastForward) rearmHostLocked() {
	for len(ff.timers) > 0 && ff.timers[0].stopped {
		heap.Pop(&ff.timers)
	}
	if len(ff.timers) == 0 {
		if ff.host != nil {
			ff.host.Stop()
			ff.hostAt = -1
		}
		return
	}
	when := ff.timers[0].when
	d := when - ff.Now()
	if d < 0 {
		d = 0
	}
	if ff.host == nil {
		ff.host = time.AfterFunc(d, ff.hostFire)
	} else if ff.hostAt != when {
		ff.host.Reset(d)
	}
	ff.hostAt = when
}

type ffTimer struct {
	owner   *FastForward
	when    time.Duration
	seq     uint64
	fn      func()
	index   int
	stopped bool
	fired   bool
}

// Stop implements Timer.
func (t *ffTimer) Stop() bool {
	t.owner.mu.Lock()
	defer t.owner.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Reset implements Timer. Like arming, it kicks the advancer. A
// stopped timer is still in the heap until it reaches the top, so it is
// moved in place; a fired one is pushed back.
func (t *ffTimer) Reset(d time.Duration) bool {
	ff := t.owner
	ff.mu.Lock()
	pending := !t.fired && !t.stopped
	ff.seq++
	t.when, t.seq = ff.Now()+d, ff.seq
	t.fired, t.stopped = false, false
	if t.index >= 0 {
		heap.Fix(&ff.timers, t.index)
	} else {
		heap.Push(&ff.timers, t)
	}
	ff.rearmHostLocked()
	ff.mu.Unlock()
	ff.Kick()
	return pending
}

// ffHeap orders timers by deadline, FIFO among equals (same contract
// as the Manual clock's heap).
type ffHeap []*ffTimer

func (h ffHeap) Len() int { return len(h) }
func (h ffHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h ffHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *ffHeap) Push(x any) {
	t := x.(*ffTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *ffHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.index = -1
	return t
}

// FastForwardOf returns the fast-forward clock underneath c, looking
// through Jittered wrappers, or nil. The kernel uses it to find the
// clock to kick regardless of chaos jitter wrapping.
func FastForwardOf(c Clock) *FastForward {
	for {
		switch t := c.(type) {
		case *FastForward:
			return t
		case *Jittered:
			c = t.Base()
		default:
			return nil
		}
	}
}
