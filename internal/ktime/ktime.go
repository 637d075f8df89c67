// Package ktime is the time substrate for the simulated SunOS kernel.
//
// The kernel and the threads library never call the time package
// directly; they go through a Clock so that tests can drive time
// deterministically with a Manual clock while benchmarks and examples
// run against the Real wall clock.
//
// All times are expressed as a time.Duration offset from "boot", which
// mirrors the way the paper's SPARCstation measurements use the
// built-in microsecond-resolution real-time timer.
package ktime

import (
	"container/heap"
	"sync"
	"time"
)

// Clock provides monotonic time since boot and one-shot timers.
type Clock interface {
	// Now reports the time elapsed since the clock was created.
	Now() time.Duration
	// AfterFunc arranges for fn to be called once d has elapsed and
	// returns a Timer that can cancel the call. fn runs on an
	// unspecified goroutine and must not block.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending call created by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was
	// prevented from running.
	Stop() bool
	// Reset re-arms the timer — pending, fired or stopped — to call
	// its function once d from now, and reports whether it was
	// pending. The earlier deadline no longer fires, but a call the
	// clock had already started may still arrive: an owner that reuses
	// one timer must be able to tell such a call from the new one.
	Reset(d time.Duration) bool
}

// Real is a Clock backed by the machine's monotonic clock.
type Real struct {
	boot time.Time
}

// NewReal returns a Clock that follows wall time, with Now()==0 at the
// moment of the call.
func NewReal() *Real {
	return &Real{boot: time.Now()}
}

// Now implements Clock.
func (r *Real) Now() time.Duration { return time.Since(r.boot) }

// AfterFunc implements Clock.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }

// Manual is a deterministic Clock driven by explicit Advance calls.
// It never moves on its own, which makes time-dependent kernel
// behaviour (time slices, interval timers, SIGWAITING waits)
// reproducible in tests.
type Manual struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	timers timerHeap
}

// NewManual returns a Manual clock at time zero.
func NewManual() *Manual { return &Manual{} }

// Now implements Clock.
func (m *Manual) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Advance moves the clock forward by d, firing every timer whose
// deadline is reached in order of deadline (FIFO among equal
// deadlines). Timer callbacks run on the caller's goroutine with the
// clock unlocked.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("ktime: negative Advance")
	}
	m.mu.Lock()
	target := m.now + d
	for {
		if len(m.timers) == 0 || m.timers[0].when > target {
			break
		}
		t := heap.Pop(&m.timers).(*manualTimer)
		if t.stopped {
			continue
		}
		m.now = t.when
		fn := t.fn
		t.fired = true
		m.mu.Unlock()
		fn()
		m.mu.Lock()
	}
	m.now = target
	m.mu.Unlock()
}

// AfterFunc implements Clock. A zero or negative d fires on the next
// Advance call (including Advance(0)).
func (m *Manual) AfterFunc(d time.Duration, fn func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	t := &manualTimer{owner: m, when: m.now + d, seq: m.seq, fn: fn}
	heap.Push(&m.timers, t)
	return t
}

// PendingTimers reports how many timers are armed and not yet fired.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

type manualTimer struct {
	owner   *Manual
	when    time.Duration
	seq     uint64
	fn      func()
	index   int
	stopped bool
	fired   bool
}

func (t *manualTimer) Stop() bool {
	t.owner.mu.Lock()
	defer t.owner.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Reset implements Timer. A stopped timer is still in the heap until
// Advance pops it, so it is moved in place; a fired one is pushed back.
func (t *manualTimer) Reset(d time.Duration) bool {
	m := t.owner
	m.mu.Lock()
	defer m.mu.Unlock()
	pending := !t.fired && !t.stopped
	m.seq++
	t.when, t.seq = m.now+d, m.seq
	t.fired, t.stopped = false, false
	if t.index >= 0 {
		heap.Fix(&m.timers, t.index)
	} else {
		heap.Push(&m.timers, t)
	}
	return pending
}

type timerHeap []*manualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*manualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.index = -1
	return t
}

// Sleep blocks the calling goroutine until d has elapsed on c.
func Sleep(c Clock, d time.Duration) {
	ch := make(chan struct{})
	c.AfterFunc(d, func() { close(ch) })
	<-ch
}

// Jittered wraps a Clock so that every AfterFunc duration is passed
// through a perturbation function before arming. Now is unperturbed:
// only the firing time of timers moves, which is how the chaos layer
// randomizes timeout and time-slice arrival without breaking monotonic
// time. A nil jitter function makes the wrapper transparent.
type Jittered struct {
	base   Clock
	jitter func(time.Duration) time.Duration
}

// NewJittered wraps base with the given duration perturbation.
func NewJittered(base Clock, jitter func(time.Duration) time.Duration) *Jittered {
	return &Jittered{base: base, jitter: jitter}
}

// Base returns the wrapped clock.
func (j *Jittered) Base() Clock { return j.base }

// Now implements Clock.
func (j *Jittered) Now() time.Duration { return j.base.Now() }

// AfterFunc implements Clock, perturbing d — and, through the timer it
// returns, every later Reset.
func (j *Jittered) AfterFunc(d time.Duration, fn func()) Timer {
	if j.jitter == nil {
		return j.base.AfterFunc(d, fn)
	}
	return jitteredTimer{j.base.AfterFunc(j.jitter(d), fn), j.jitter}
}

type jitteredTimer struct {
	Timer
	jitter func(time.Duration) time.Duration
}

func (t jitteredTimer) Reset(d time.Duration) bool { return t.Timer.Reset(t.jitter(d)) }
