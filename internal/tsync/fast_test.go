package tsync

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
)

// TestUncontendedMutexNoWordLock: after its first use, an adaptive
// mutex's uncontended Enter+Exit and TryEnter+Exit take its word lock 0
// times (2 before: every Enter and Exit locked it). The owner word is
// the lock, and the word lock is needed only once someone waits. Shown
// by making the calls while this goroutine holds the word lock; the
// version that took it deadlocks here. The spin and error-check
// variants resolve to adaptive and go the same way.
func TestUncontendedMutexNoWordLock(t *testing.T) {
	cases := map[string]func(mu *Mutex){
		"zero":       func(*Mutex) {},
		"adaptive":   func(mu *Mutex) { mu.InitPolicy(PolicyAdaptive) },
		"spin":       func(mu *Mutex) { mu.Init(VariantSpin) },
		"errorcheck": func(mu *Mutex) { mu.Init(VariantErrorCheck) },
	}
	for name, init := range cases {
		t.Run(name, func(t *testing.T) {
			var mu Mutex
			init(&mu)
			w := newWorld(1)
			ready, locked, done := make(chan struct{}), make(chan struct{}), make(chan bool)
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				mu.Enter(self) // the first use pins the policy under the word lock
				mu.Exit(self)
				close(ready)
				<-locked
				ok := true
				for i := 0; i < 3; i++ {
					mu.Enter(self)
					mu.Exit(self)
					ok = mu.TryEnter(self) && ok
					mu.Exit(self)
				}
				done <- ok
			})
			<-ready
			mu.mu.Lock()
			close(locked)
			select {
			case ok := <-done:
				if !ok {
					t.Error("TryEnter of a free lock failed")
				}
				mu.mu.Unlock()
			case <-time.After(5 * time.Second):
				t.Error("an uncontended pair waits for the word lock")
				mu.mu.Unlock()
				<-done
			}
			waitRT(t, m)
		})
	}
}

// Fast-path hammer sizes: threads (two of each priority), rounds per
// run, and acquisitions per thread in a round.
const (
	hammerThreads = 6
	hammerRounds  = 42
	hammerIters   = 400
	hammerBound   = 10 * time.Second
)

// TestFastMutexHammer races the one-swap release against waiters
// queueing on one adaptive mutex: threads of priorities 1, 5 and 10 on
// two pool LWPs, under chaos preemption and spurious wakeups, at
// GOMAXPROCS 1 and 2. Run under -race.
//
// Most rounds let exactly two threads at the lock, each taking it by
// Enter, TimedEnter or a TryEnter loop and releasing it at once. With
// one peer, a free lock with a queued waiter after a release is a lost
// wake: the peer queued behind the releaser, and nothing but that
// release will wake it. Each thread checks for it after every release.
// Every seventh round lets all six at the lock, adding bargers and
// TimedEnters short enough to expire, so locks are taken between a fast
// release's swap and its locked tail and timed waiters leave the queue.
// Waiting for a round, threads park rather than yield, so a priority-10
// thread cannot starve a priority-1 holder.
//
// At quiesce: every wait ended within the bound, the protected counter
// sums, every thread's effective priority is its base, no sleep-queue
// or turnstile link is left, and after one more pair the fast flag is
// set.
func TestFastMutexHammer(t *testing.T) {
	// The races need two host threads to open often; one thread is
	// checked on fewer seeds.
	for _, c := range []struct{ procs, seeds int }{{1, 2}, {2, 6}} {
		for seed := uint64(1); seed <= uint64(c.seeds); seed++ {
			t.Run(fmt.Sprintf("procs=%d/seed=%d", c.procs, seed), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
				fastHammer(t, seed)
			})
		}
	}
}

func fastHammer(t *testing.T, seed uint64) {
	// Only the sites that move a waiter or an owner: preemption, run
	// queue order and spurious wakeups.
	k := sim.NewKernel(sim.Config{
		NCPU:             2,
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
		Chaos: chaos.New(chaos.Config{
			Seed:           seed,
			Preempt:        100,
			ThreadPreempt:  150,
			RunqReorder:    150,
			SpuriousWakeup: 100,
		}),
	})
	w := &world{k: k, reg: usync.NewRegistry(k)}
	var (
		mu       Mutex
		counter  int // guarded by mu
		acquired atomic.Int64
		timeouts atomic.Int64 // short TimedEnters that expired
		gate     [hammerThreads]Sema
		finished Sema
		all      atomic.Bool // this round lets every thread at the lock
		stop     atomic.Bool
		effEnd   [hammerThreads]atomic.Int32
		failed   atomic.Value // first failure, a string
	)
	mu.InitPolicy(PolicyAdaptive)
	fail := func(format string, args ...any) {
		failed.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	// acquire takes mu by mode — Enter, TimedEnter, a TryEnter loop —
	// failing if that takes longer than the bound.
	acquire := func(c *core.Thread, mode int) bool {
		deadline := time.Now().Add(hammerBound)
		switch mode {
		case 0:
			mu.Enter(c)
		case 1:
			if err := mu.TimedEnter(c, hammerBound); err != nil {
				fail("thread %d: TimedEnter: %v (lost wake?)", c.ID(), err)
				return false
			}
		default:
			for !mu.TryEnter(c) {
				if time.Now().After(deadline) {
					fail("thread %d: TryEnter failing after %v", c.ID(), hammerBound)
					return false
				}
				c.Yield()
			}
		}
		if time.Now().After(deadline) {
			fail("thread %d: acquired only after %v (lost wake?)", c.ID(), hammerBound)
			return false
		}
		return true
	}
	// round is one thread's share of a round.
	round := func(c *core.Thread, i int) bool {
		crowd := all.Load()
		for it := 0; it < hammerIters; it++ {
			mode := (it + i) % 4
			if crowd && mode == 3 {
				// Short enough to expire under contention.
				if err := mu.TimedEnter(c, 20*time.Microsecond); err != nil {
					if !errors.Is(err, ErrTimedOut) {
						fail("thread %d: short TimedEnter: %v", i, err)
						return false
					}
					timeouts.Add(1)
					continue
				}
			} else if !acquire(c, mode%3) {
				return false
			}
			counter++
			acquired.Add(1)
			if it%2 == 1 {
				c.Yield() // let the peer find the owner off its processor and queue
			}
			mu.Exit(c)
			if !crowd {
				mu.mu.Lock()
				lost := mu.owner.Load() == nil && mu.waiters.len() > 0
				mu.mu.Unlock()
				if lost {
					fail("thread %d: released with its peer queued and nobody woken (lost wake)", i)
					return false
				}
			}
		}
		return true
	}
	prios := []int{1, 5, 10}
	worker := func(i int) core.Func {
		return func(c *core.Thread, _ any) {
			for {
				if err := gate[i].TimedP(c, 3*hammerBound); err != nil {
					fail("thread %d waiting for a round: %v", i, err)
					return
				}
				if stop.Load() {
					break
				}
				ok := round(c, i)
				finished.V(c)
				if !ok {
					return
				}
			}
			effEnd[i].Store(int32(c.EffPriority()))
		}
	}
	var fastAfter bool
	var linkedAtQuiesce *core.Thread
	var queuedAtQuiesce int
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		var ids []core.ThreadID
		var ths []*core.Thread
		for i := 0; i < hammerThreads; i++ {
			c, err := r.Create(worker(i), nil, core.CreateOpts{Flags: core.ThreadWait, Priority: prios[i%3]})
			if err != nil {
				fail("create: %v", err)
				return
			}
			ids = append(ids, c.ID())
			ths = append(ths, c)
		}
		for rd := 0; rd < hammerRounds && failed.Load() == nil; rd++ {
			who := []int{rd % hammerThreads, (rd + 1) % hammerThreads}
			all.Store(rd%7 == 6)
			if all.Load() {
				who = []int{0, 1, 2, 3, 4, 5}
			}
			for _, i := range who {
				gate[i].V(self)
			}
			for range who {
				if err := finished.TimedP(self, 2*hammerBound); err != nil {
					mu.mu.Lock()
					o := mu.owner.Load()
					st := fmt.Sprintf("owner=%v fast=%v queued=%d linked=%v", o != nil, mu.fast.Load(), mu.waiters.len(), mu.ts.Linked() != nil)
					mu.mu.Unlock()
					for _, th := range ths {
						st += fmt.Sprintf(" [%d owner=%v state=%v blocked=%v eff=%d]", th.ID(), th == o, th.State(), th.BlockedOn() != nil, th.EffPriority())
					}
					fail("round %d did not finish: %v %s", rd, err, st)
					break
				}
			}
		}
		stop.Store(true)
		for i := range gate {
			gate[i].V(self)
		}
		for _, id := range ids {
			self.Wait(id)
		}
		mu.mu.Lock()
		linkedAtQuiesce, queuedAtQuiesce = mu.ts.Linked(), mu.waiters.len()
		mu.mu.Unlock()
		// A timed waiter that gave up last leaves fast clear; the next
		// locked release sets it again.
		mu.Enter(self)
		mu.Exit(self)
		fastAfter = mu.fast.Load()
		noResidualLinks(t, r)
	})
	// A failure can leave a thread parked for good; give the run a
	// moment to end, then report it.
	bound := time.After(6 * hammerBound)
	for ended := false; !ended; {
		select {
		case <-m.Exited():
			ended = true
		case <-bound:
			t.Fatalf("hammer did not finish (first failure: %v)", failed.Load())
		case <-time.After(10 * time.Millisecond):
			if f := failed.Load(); f != nil {
				select {
				case <-m.Exited():
				case <-time.After(time.Second):
				}
				t.Fatal(f)
			}
		}
	}
	if f := failed.Load(); f != nil {
		t.Fatal(f)
	}
	if int64(counter) != acquired.Load() {
		t.Errorf("counter = %d, want %d acquisitions", counter, acquired.Load())
	}
	if min := int64(hammerRounds * 2 * hammerIters * 3 / 4); acquired.Load() < min {
		t.Errorf("%d acquisitions, want at least %d", acquired.Load(), min)
	}
	for i := range effEnd {
		if got, want := int(effEnd[i].Load()), prios[i%3]; got != want {
			t.Errorf("thread %d eff priority at quiesce = %d, want base %d", i, got, want)
		}
	}
	if linkedAtQuiesce != nil || queuedAtQuiesce != 0 {
		t.Errorf("at quiesce: turnstile linked to %p, %d queued; want nil, 0", linkedAtQuiesce, queuedAtQuiesce)
	}
	t.Logf("%d acquisitions, %d short TimedEnters expired", acquired.Load(), timeouts.Load())
	if !fastAfter {
		t.Error("fast flag clear after an uncontended pair at quiesce")
	}
}
