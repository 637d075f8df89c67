package tsync

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
)

// TestAdaptiveParksBehindKernelBlockedOwner: the owner of a default-
// policy mutex is asleep in a timed poll — still loaded on its LWP, not
// on a processor — when a waiter on a second LWP enters. The waiter must
// queue and park at once; before OnCPU followed the LWP it first yielded
// its 128-probe budget away at an owner that could not release.
//
// A bystander thread, runnable before the waiter enters and with no LWP
// but the waiter's to run on, says how the waiter gave the LWP up: it
// runs for the first time either on the waiter's first probe or on its
// park, and looks which.
func TestAdaptiveParksBehindKernelBlockedOwner(t *testing.T) {
	const wait = 50 * time.Millisecond
	w := newWorld(2)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		pf := vfs.NewProcFiles(vfs.NewFS(w.k), r.Process())
		rfd, _, _ := pf.Pipe(self.LWP()) // never written: the poll times out
		ownerLWP := self.LWP()
		var (
			mu        Mutex
			ownerWoke atomic.Bool
			parked    bool          // bystander: the waiter was parked on mu when I first ran...
			inTime    bool          // ...and the owner was still asleep
			cpu       time.Duration // waiter's LWP, user+sys, from Enter to ownership
		)
		mu.Enter(self)
		waiter, err := r.Create(func(c *core.Thread, _ any) {
			for ownerLWP.State() != sim.LWPSleeping {
				c.Yield()
				time.Sleep(50 * time.Microsecond)
			}
			l := c.LWP()
			u0, s0 := l.Usage()
			bystander, err := r.Create(func(*core.Thread, any) {
				bi := c.BlockedOn()
				parked = bi != nil && bi.Kind == "mutex" && bi.Ts != nil
				inTime = !ownerWoke.Load()
			}, nil, core.CreateOpts{Flags: core.ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Enter(c)
			u1, s1 := l.Usage()
			cpu = u1 + s1 - u0 - s0
			mu.Exit(c)
			c.Wait(bystander.ID())
		}, nil, core.CreateOpts{Flags: core.ThreadWait | core.ThreadNewLWP})
		if err != nil {
			t.Error(err)
			return
		}
		fds := []vfs.PollFD{{FD: rfd, Events: vfs.PollIn}}
		if n, err := pf.Poll(ownerLWP, fds, wait); n != 0 || err != nil {
			t.Errorf("owner's poll = %d, %v; want a timeout", n, err)
		}
		ownerWoke.Store(true)
		mu.Exit(self)
		self.Wait(waiter.ID())
		if !parked || !inTime {
			t.Errorf("when the waiter's LWP first ran another thread: waiter parked on the mutex = %v, owner still asleep = %v; want true, true", parked, inTime)
		}
		if cpu > wait/10 {
			t.Errorf("waiter's LWP used %v of CPU over a %v wait, want under a tenth", cpu, wait)
		}
	})
	waitRT(t, m)
}
