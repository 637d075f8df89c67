package tsync

import (
	"testing"

	"sunosmt/internal/core"
	"sunosmt/internal/vm"
)

// These tests pin the zero-alloc block path: a primitive's wait-for
// edge (core.BlockInfo and its owner resolver) is built once and
// cached on the primitive, so a thread that blocks on it — the
// context-switch path of every contended program — allocates nothing.
// Before the cache each block built a fresh BlockInfo plus an owner
// closure: 2 host allocations per semaphore block.

// TestSemaBlockZeroAlloc: a P/V ping-pong in which every P blocks.
func TestSemaBlockZeroAlloc(t *testing.T) {
	w := newWorld(1)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var ping, pong Sema
		stop := false
		peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			for {
				ping.P(c)
				if stop {
					return
				}
				pong.V(c)
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		cycle := func() {
			ping.V(self)
			pong.P(self) // count is zero: blocks until the peer has run
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("sema P/V block round trip allocates %.1f objects/op, want 0", avg)
		}
		stop = true
		ping.V(self)
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}
	})
	waitRT(t, m)
}

// TestSharedSemaBlockZeroAlloc: the same ping-pong on process-shared
// semaphores, in which every P of the main thread sleeps in the kernel
// once and is woken: the peer posts only after it has seen the main
// thread's LWP on the variable's wait queue. The peer is bound, since a
// shared wait blocks its LWP.
func TestSharedSemaBlockZeroAlloc(t *testing.T) {
	w := newWorld(1)
	obj := vm.NewAnon(vm.PageSize)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var ping, pong Sema
		ping.InitShared(w.reg.Var(obj, 0), 0)
		pong.InitShared(w.reg.Var(obj, 64), 0)
		stop := false
		peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			for {
				ping.P(c)
				if stop {
					return
				}
				for pong.sv.Waiters() == 0 {
					c.Yield()
				}
				pong.V(c)
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait | core.ThreadBindLWP})
		if err != nil {
			t.Error(err)
			return
		}
		cycle := func() {
			ping.V(self)
			pong.P(self)
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("shared sema P/V kernel-sleep round trip allocates %.1f objects/op, want 0", avg)
		}
		stop = true
		ping.V(self)
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}
	})
	waitRT(t, m)
}

// TestCondWaitZeroAlloc: a Wait/Signal ping-pong under one mutex.
func TestCondWaitZeroAlloc(t *testing.T) {
	w := newWorld(1)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var mu Mutex
		var cv Cond
		turn, stop := 0, false // 0: main's turn, 1: peer's
		peer, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			for !stop {
				for turn != 1 && !stop {
					cv.Wait(c, &mu)
				}
				turn = 0
				cv.Signal(c)
			}
			mu.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		cycle := func() {
			mu.Enter(self)
			turn = 1
			cv.Signal(self)
			for turn != 0 {
				cv.Wait(self, &mu)
			}
			mu.Exit(self)
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("cond wait/signal round trip allocates %.1f objects/op, want 0", avg)
		}
		mu.Enter(self)
		stop = true
		cv.Signal(self)
		mu.Exit(self)
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}
	})
	waitRT(t, m)
}

// TestSharedUncontendedZeroAlloc pins the process-shared fast paths:
// a section works on the variable's own word image and the registry
// keeps one Var per identity, so an uncontended shared Enter+Exit, a
// shared V+P and a repeat lookup of a known identity allocate
// nothing. Before the image every word load or store heap-allocated
// its 8-byte buffer (9 per Enter+Exit) and every lookup a handle.
func TestSharedUncontendedZeroAlloc(t *testing.T) {
	w := newWorld(1)
	obj := vm.NewAnon(vm.PageSize)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var mu Mutex
		mu.InitShared(w.reg.Var(obj, 0))
		var sem Sema
		sem.InitShared(w.reg.Var(obj, 64), 0)
		for name, op := range map[string]func(){
			"shared mutex Enter+Exit":          func() { mu.Enter(self); mu.Exit(self) },
			"shared sema V+P":                  func() { sem.V(self); sem.P(self) },
			"Registry.Var on a known identity": func() { w.reg.Var(obj, 0) },
		} {
			if avg := testing.AllocsPerRun(200, op); avg > 0 {
				t.Errorf("%s allocates %.1f objects/op, want 0", name, avg)
			}
		}
	})
	waitRT(t, m)
}
