package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
)

// TestOnCPUFollowsTheLWP: OnCPU is "loaded on an LWP that holds a CPU".
// A thread whose LWP sleeps in a pipe read, is parked, or waits on the
// kernel run queue reads as not running although it never left the
// LWP, and as running again once the LWP has its CPU back.
func TestOnCPUFollowsTheLWP(t *testing.T) {
	// until polls from the main thread; the LWPs being watched have
	// CPUs of their own.
	until := func(self *Thread, what string, cond func() bool) {
		for i := 0; !cond(); i++ {
			if i == 20000 {
				t.Errorf("timed out waiting until %s", what)
				return
			}
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
	}
	// hold keeps the calling thread on its CPU until released.
	hold := func(running, release *atomic.Bool) {
		running.Store(true)
		for !release.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	}

	t.Run("asleep in a pipe read", func(t *testing.T) {
		var running, release atomic.Bool
		m := rt(t, 4, Config{}, func(self *Thread, _ any) {
			r := self.Runtime()
			pf := vfs.NewProcFiles(vfs.NewFS(r.Kernel()), r.Process())
			rfd, wfd, _ := pf.Pipe(self.LWP())
			reader, err := r.Create(func(c *Thread, _ any) {
				var b [1]byte
				pf.Read(c.LWP(), rfd, b[:])
				hold(&running, &release)
			}, nil, CreateOpts{Flags: ThreadWait | ThreadNewLWP})
			if err != nil {
				t.Error(err)
				return
			}
			until(self, "the reader's LWP sleeps", func() bool {
				l := reader.LWP()
				return l != nil && l.State() == sim.LWPSleeping
			})
			if loaded, on := reader.LWP() != nil, reader.OnCPU(); !loaded || on {
				t.Errorf("reader asleep in the kernel: loaded = %v, OnCPU() = %v; want true, false", loaded, on)
			}
			pf.Write(self.LWP(), wfd, []byte{1})
			until(self, "the reader runs again", running.Load)
			if !reader.OnCPU() {
				t.Error("reader back from its read: OnCPU() = false")
			}
			release.Store(true)
			self.Wait(reader.ID())
		})
		waitExit(t, m)
	})

	t.Run("bound and parked", func(t *testing.T) {
		var running, release atomic.Bool
		m := rt(t, 4, Config{}, func(self *Thread, _ any) {
			sleeper, err := self.Runtime().Create(func(c *Thread, _ any) {
				c.Park()
				hold(&running, &release)
			}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
			if err != nil {
				t.Error(err)
				return
			}
			until(self, "the bound LWP parks", func() bool { return sleeper.BoundLWP().State() == sim.LWPParked })
			if sleeper.OnCPU() {
				t.Error("bound thread in kern.Park: OnCPU() = true")
			}
			sleeper.Unpark()
			until(self, "the bound thread runs again", running.Load)
			if !sleeper.OnCPU() {
				t.Error("bound thread unparked: OnCPU() = false")
			}
			release.Store(true)
			self.Wait(sleeper.ID())
		})
		waitExit(t, m)
	})

	// One CPU, two LWPs: whichever thread is executing sees itself
	// running and the other — loaded, its LWP on the kernel run queue —
	// not.
	t.Run("preempted to the kernel run queue", func(t *testing.T) {
		var peerRan, done atomic.Bool
		m := rt(t, 1, Config{}, func(self *Thread, _ any) {
			k := self.Runtime().Kernel()
			check := func(me, other *Thread) {
				if !me.OnCPU() || other.OnCPU() {
					t.Errorf("thread %d executing on the only CPU: own OnCPU() = %v, thread %d's = %v", me.ID(), me.OnCPU(), other.ID(), other.OnCPU())
				}
			}
			peer, err := self.Runtime().Create(func(c *Thread, _ any) {
				check(c, self)
				peerRan.Store(true)
				for !done.Load() {
					k.Yield(c.LWP())
				}
			}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
			if err != nil {
				t.Error(err)
				return
			}
			for !peerRan.Load() {
				k.Yield(self.LWP())
			}
			check(self, peer)
			done.Store(true)
			self.Wait(peer.ID())
		})
		waitExit(t, m)
	})
}
