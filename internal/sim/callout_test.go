package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/ktime"
)

// timedSleep is one SleepIf running on an LWP of its own; res receives
// its result unless the LWP unwinds.
type timedSleep struct {
	l    *LWP
	res  chan WakeResult
	done <-chan struct{}
}

func startSleep(k *Kernel, p *Process, wq *WaitQ, o SleepOpts) timedSleep {
	s := timedSleep{res: make(chan WakeResult, 1)}
	s.l, s.done = animate(k, p, func(l *LWP) { s.res <- sleepOn(k, l, wq, o) })
	return s
}

// awaitCallout waits until the callout holds n sleeps.
func awaitCallout(t *testing.T, k *Kernel, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); k.CalloutLen() != n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("callout holds %d sleeps, want %d", k.CalloutLen(), n)
		}
	}
}

// ended reports whether the sleep has been woken. Under the Manual
// clock a timeout is delivered inside Advance, so it reads true as soon
// as Advance returns, or never.
func (s timedSleep) ended(k *Kernel) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return s.l.woken
}

func (s timedSleep) want(t *testing.T, what string, res WakeResult) {
	t.Helper()
	select {
	case got := <-s.res:
		if got != res {
			t.Errorf("%s: sleep ended with %v, want %v", what, got, res)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: sleep never returned", what)
	}
}

// TestCalloutConformance: under the Manual clock every timed kernel
// sleep ends with WakeTimeout exactly when Advance crosses its deadline
// — equal deadlines together, a later one later — and any other end
// (a Wakeup, a signal, the LWP's exit, fork's EINTR) gives its own
// result and takes the sleep out of the callout, which is empty once
// everything has ended.
func TestCalloutConformance(t *testing.T) {
	const ms = time.Millisecond
	boot := func() (*Kernel, *ktime.Manual, *Process) {
		clk := ktime.NewManual()
		k := NewKernel(Config{NCPU: 4, Clock: clk})
		return k, clk, k.NewProcess("callout", nil)
	}
	t.Run("deadlines", func(t *testing.T) {
		k, clk, p := boot()
		wq := NewWaitQ("nobody")
		a := startSleep(k, p, wq, SleepOpts{Timeout: 10 * ms})
		awaitCallout(t, k, 1)
		b := startSleep(k, p, wq, SleepOpts{Timeout: 10 * ms})
		c := startSleep(k, p, wq, SleepOpts{Timeout: 20 * ms})
		awaitCallout(t, k, 3)
		clk.Advance(10*ms - 1)
		if a.ended(k) || b.ended(k) || c.ended(k) {
			t.Fatal("a sleep ended before its deadline")
		}
		clk.Advance(1)
		if !a.ended(k) || !b.ended(k) || c.ended(k) {
			t.Fatalf("at 10ms: ended %v %v %v, want true true false", a.ended(k), b.ended(k), c.ended(k))
		}
		a.want(t, "a", WakeTimeout)
		b.want(t, "b", WakeTimeout)
		clk.Advance(10*ms - 1)
		if c.ended(k) {
			t.Fatal("c ended before its deadline")
		}
		clk.Advance(1)
		c.want(t, "c", WakeTimeout)
		awaitCallout(t, k, 0)
	})
	t.Run("wakeup", func(t *testing.T) {
		k, clk, p := boot()
		wq := NewWaitQ("woken")
		a := startSleep(k, p, wq, SleepOpts{Timeout: 10 * ms})
		b := startSleep(k, p, NewWaitQ("nobody"), SleepOpts{Timeout: 20 * ms})
		awaitCallout(t, k, 2)
		clk.Advance(5 * ms)
		k.Wakeup(wq, -1)
		a.want(t, "woken", WakeNormal)
		awaitCallout(t, k, 1)
		clk.Advance(15*ms - 1)
		if b.ended(k) {
			t.Fatal("b ended before its deadline")
		}
		clk.Advance(1)
		b.want(t, "b", WakeTimeout)
		awaitCallout(t, k, 0)
	})
	t.Run("signal", func(t *testing.T) {
		k, clk, p := boot()
		k.SetAction(p, SIGUSR1, SigCatch, func(Signal) {}, 0)
		a := startSleep(k, p, NewWaitQ("nobody"), SleepOpts{Interruptible: true, Timeout: 10 * ms})
		awaitCallout(t, k, 1)
		clk.Advance(5 * ms)
		k.PostSignal(p, SIGUSR1)
		a.want(t, "interrupted", WakeInterrupted)
		awaitCallout(t, k, 0)
		clk.Advance(10 * ms)
	})
	t.Run("exit", func(t *testing.T) {
		k, clk, p := boot()
		a := startSleep(k, p, NewWaitQ("nobody"), SleepOpts{Timeout: 10 * ms})
		awaitCallout(t, k, 1)
		k.PostSignal(p, SIGKILL)
		waitClosed(t, a.done, "the killed sleeper's exit")
		if n := k.CalloutLen(); n != 0 {
			t.Fatalf("callout holds %d sleeps after the sleeper exited", n)
		}
		clk.Advance(20 * ms)
		select {
		case res := <-a.res:
			t.Fatalf("killed sleep returned %v", res)
		default:
		}
	})
	t.Run("fork", func(t *testing.T) {
		k, clk, p := boot()
		a := startSleep(k, p, NewWaitQ("nobody"), SleepOpts{Timeout: 10 * ms})
		b := startSleep(k, p, NewWaitQ("nobody"), SleepOpts{Interruptible: true, Timeout: 10 * ms})
		awaitCallout(t, k, 2)
		f := drive(k, p)
		f.do(t, func() {
			if _, _, _, err := k.Fork(f.l, true); err != nil {
				t.Error(err)
			}
		})
		b.want(t, "interruptible, across fork", WakeInterrupted)
		awaitCallout(t, k, 1)
		clk.Advance(10*ms - 1)
		if a.ended(k) {
			t.Fatal("a ended before its deadline")
		}
		clk.Advance(1)
		a.want(t, "uninterruptible, across fork", WakeTimeout)
		awaitCallout(t, k, 0)
		f.stop(t)
	})
}

// countingTimers counts a clock's AfterFunc calls and its timers' Reset
// and Stop calls.
type countingTimers struct {
	ktime.Clock
	afters, resets, stops atomic.Int64
}

func (c *countingTimers) AfterFunc(d time.Duration, fn func()) ktime.Timer {
	c.afters.Add(1)
	return countedTimer{c.Clock.AfterFunc(d, fn), c}
}

type countedTimer struct {
	ktime.Timer
	c *countingTimers
}

func (t countedTimer) Reset(d time.Duration) bool { t.c.resets.Add(1); return t.Timer.Reset(d) }
func (t countedTimer) Stop() bool                 { t.c.stops.Add(1); return t.Timer.Stop() }

// TestCalloutOneTimer: timed sleeps share the kernel's one timer. N
// sleeps, each woken before its deadline and each deadline later than
// the one armed, make one AfterFunc and no Reset or Stop (with a timer
// per LWP they made 1 AfterFunc, 19 Resets and 21 Stops).
func TestCalloutOneTimer(t *testing.T) {
	const n = 20
	clk := &countingTimers{Clock: ktime.NewReal()}
	k := NewKernel(Config{NCPU: 1, Clock: clk, KernelSwitchCost: -1})
	p := k.NewProcess("timers", nil)
	wq := NewWaitQ("woken")
	l, done := animate(k, p, func(l *LWP) {
		for i := 0; i < n; i++ {
			if res := sleepOn(k, l, wq, SleepOpts{Timeout: time.Hour}); res != WakeNormal {
				t.Errorf("sleep %d: %v, want WakeNormal", i, res)
			}
		}
	})
	for i := 0; i < n; i++ {
		awaitCallout(t, k, 1)
		for l.State() != LWPSleeping {
			runtime.Gosched()
		}
		k.Wakeup(wq, -1)
	}
	waitClosed(t, done, "sleeper")
	if a, r, s := clk.afters.Load(), clk.resets.Load(), clk.stops.Load(); a != 1 || r != 0 || s != 0 {
		t.Errorf("%d timed sleeps woken early: %d AfterFunc, %d Reset, %d Stop; want 1, 0, 0", n, a, r, s)
	}
}

// TestWakeupAllEmptyNoKernelLock: WakeupAll on empty queues takes no
// kernel lock (one section before), shown by making the call while
// this goroutine holds k.mu.
func TestWakeupAllEmptyNoKernelLock(t *testing.T) {
	k := newTestKernel(1)
	q1, q2 := NewWaitQ("empty1"), NewWaitQ("empty2")
	k.mu.Lock()
	done := make(chan struct{})
	go func() {
		k.WakeupAll(q1, q2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("WakeupAll on empty queues waits for k.mu")
	}
	k.mu.Unlock()
	<-done
}

// goid returns the calling goroutine's id, from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestSigwaitingHookOnSleeper: the SIGWAITING hook runs once per
// all-blocked episode, on the goroutine of the LWP whose sleep made the
// process all-blocked, with k.mu free (the hook takes it; called under
// it, it would hang) — no goroutine is started for it (one was, per
// post, before).
func TestSigwaitingHookOnSleeper(t *testing.T) {
	k := NewKernel(Config{NCPU: 2, KernelSwitchCost: -1})
	p := k.NewProcess("hook", nil)
	var sleeper atomic.Uint64
	var runs, elsewhere atomic.Int32
	p.SetSigwaitingHook(func() {
		k.mu.Lock()
		k.mu.Unlock()
		if goid() != sleeper.Load() {
			elsewhere.Add(1)
		}
		runs.Add(1)
	})
	wq := NewWaitQ("poll")
	const episodes = 3
	release := make(chan struct{})
	l, done := animate(k, p, func(l *LWP) {
		sleeper.Store(goid())
		for i := 0; i < episodes; i++ {
			sleepOn(k, l, wq, SleepOpts{Indefinite: true})
		}
		<-release
	})
	for i := int32(1); i <= episodes; i++ {
		for deadline := time.Now().Add(5 * time.Second); l.State() != LWPSleeping || runs.Load() < i; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("episode %d: the hook has not returned", i)
			}
		}
		k.Wakeup(wq, -1)
	}
	close(release)
	waitClosed(t, done, "sleeper")
	if r, e := runs.Load(), elsewhere.Load(); r != episodes || e != 0 {
		t.Errorf("%d all-blocked episodes: hook ran %d times, %d off the sleeper's goroutine; want %d, 0",
			episodes, r, e, episodes)
	}
}
