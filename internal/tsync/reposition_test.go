package tsync

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
)

// TestRepositionHammer: a waiter whose effective priority keeps moving
// while it is queued — its base priority flipped by SetPriority, and a
// boost willed to it, and down the chain past it, by a thread that
// times out blocking on a mutex the waiter holds — against a waker
// whose every Signal, V or Exit is the only wake of its round. The
// waker learns whether the queue is empty from its count without the
// shard lock, and a re-sort must not let that count dip: a wake that
// read it low would leave the waiter parked and hang the round. Ends
// with no residual sleep-queue or turnstile link. Run under -race.
func TestRepositionHammer(t *testing.T) {
	const rounds = 100
	for _, kind := range []string{"cond", "sema", "mutex"} {
		t.Run(kind, func(t *testing.T) {
			w := newWorld(4)
			var (
				held, mu, mx Mutex
				cv           Cond
				sem          Sema
				posted       bool // guarded by mu
				turn, got    atomic.Int64
				stop         atomic.Bool
			)
			// wait is the waiter's blocking step on edge; wake is the
			// waker's, made once the waiter is parked there.
			var wait func(c *core.Thread)
			var prepare, wake func(self *core.Thread)
			var edge *core.BlockInfo
			switch kind {
			case "cond":
				edge = cv.edge(condKind, nil, nil, "")
				wait = func(c *core.Thread) {
					mu.Enter(c)
					for !posted {
						cv.Wait(c, &mu)
					}
					posted = false
					mu.Exit(c)
				}
				wake = func(self *core.Thread) {
					mu.Enter(self)
					posted = true
					mu.Exit(self)
					cv.Signal(self)
				}
			case "sema":
				edge = sem.edge(semaKind, &sem, nil, "")
				wait, wake = sem.P, sem.V
			case "mutex":
				edge = mx.edge(mutexKind, &mx, &mx.ts, "adaptive")
				wait = func(c *core.Thread) { mx.Enter(c); mx.Exit(c) }
				prepare, wake = mx.Enter, mx.Exit
			}
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				r := self.Runtime()
				// A failure here, or a lost wake below, ends this body with the
				// others still running: the runtime then never exits, and
				// waitRT fails the test.
				spawn := func(prio int, fn func(c *core.Thread)) *core.Thread {
					c, err := r.Create(func(c *core.Thread, _ any) { fn(c) }, nil,
						core.CreateOpts{Flags: core.ThreadWait | core.ThreadBindLWP, Priority: prio})
					if err != nil {
						t.Error(err)
						stop.Store(true)
					}
					return c
				}
				waiter := spawn(5, func(c *core.Thread) {
					for i := int64(1); i <= rounds; i++ {
						for turn.Load() < i {
							c.Yield()
						}
						held.Enter(c)
						wait(c)
						held.Exit(c)
						got.Store(i)
					}
				})
				if waiter == nil {
					return
				}
				booster := spawn(5, func(c *core.Thread) {
					for p := 3; !stop.Load(); p = 10 - p {
						r.SetPriority(waiter, p)
					}
				})
				heir := spawn(9, func(c *core.Thread) {
					for !stop.Load() {
						if held.TimedEnter(c, 50*time.Microsecond) == nil {
							held.Exit(c)
						}
					}
				})
				if booster == nil || heir == nil {
					return
				}
				// A lost wake hangs a round: give each wait a deadline, not
				// a yield count, so a slow host is not mistaken for one.
				until := func(cond func() bool) bool {
					for deadline := time.Now().Add(10 * time.Second); !cond(); self.Yield() {
						if time.Now().After(deadline) {
							t.Errorf("round %d of %d never completed: a wake was lost", turn.Load(), rounds)
							return false
						}
					}
					return true
				}
				for i := int64(1); i <= rounds; i++ {
					if prepare != nil {
						prepare(self)
					}
					turn.Store(i)
					if !until(func() bool { return waiter.State() == core.ThreadSleeping && waiter.BlockedOn() == edge }) {
						return
					}
					wake(self)
					if !until(func() bool { return got.Load() == i }) {
						return
					}
				}
				stop.Store(true)
				for _, c := range []*core.Thread{waiter, booster, heir} {
					self.Wait(c.ID())
				}
				noResidualLinks(t, r)
			})
			waitRT(t, m)
		})
	}
}
