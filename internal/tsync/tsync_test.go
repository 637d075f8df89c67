package tsync

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
	"sunosmt/internal/vm"
)

// world is one simulated machine with a kernel, a usync registry, and
// helpers to boot thread runtimes (processes).
type world struct {
	k   *sim.Kernel
	reg *usync.Registry
}

func newWorld(ncpu int) *world {
	k := sim.NewKernel(sim.Config{NCPU: ncpu})
	return &world{k: k, reg: usync.NewRegistry(k)}
}

// boot starts a process whose main thread runs fn.
func (w *world) boot(t *testing.T, name string, cfg core.Config, fn core.Func) *core.Runtime {
	t.Helper()
	p := w.k.NewProcess(name, nil)
	m := core.NewRuntime(w.k, p, cfg)
	if _, err := m.Start(fn, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitRT(t *testing.T, m *core.Runtime) {
	t.Helper()
	select {
	case <-m.Exited():
	case <-time.After(15 * time.Second):
		t.Fatal("timeout waiting for runtime exit")
	}
}

func TestMutexZeroValueMutualExclusion(t *testing.T) {
	w := newWorld(2)
	var mu Mutex // zero value: default variant, usable immediately
	var counter int
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		var ids []core.ThreadID
		for i := 0; i < 4; i++ {
			c, _ := r.Create(func(c *core.Thread, _ any) {
				for j := 0; j < 500; j++ {
					mu.Enter(c)
					counter++
					mu.Exit(c)
				}
			}, nil, core.CreateOpts{Flags: core.ThreadWait})
			ids = append(ids, c.ID())
		}
		for _, id := range ids {
			self.Wait(id)
		}
	})
	waitRT(t, m)
	if counter != 2000 {
		t.Fatalf("counter = %d, want 2000 (lost updates)", counter)
	}
}

func TestMutexVariants(t *testing.T) {
	for _, v := range []Variant{VariantDefault, VariantSpin, VariantAdaptive, VariantErrorCheck} {
		v := v
		w := newWorld(2)
		var mu Mutex
		mu.Init(v)
		var counter int
		m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
			r := self.Runtime()
			r.SetConcurrency(2)
			var ids []core.ThreadID
			for i := 0; i < 3; i++ {
				c, _ := r.Create(func(c *core.Thread, _ any) {
					for j := 0; j < 200; j++ {
						mu.Enter(c)
						counter++
						mu.Exit(c)
					}
				}, nil, core.CreateOpts{Flags: core.ThreadWait})
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				self.Wait(id)
			}
		})
		waitRT(t, m)
		if counter != 600 {
			t.Fatalf("variant %d: counter = %d, want 600", v, counter)
		}
	}
}

func TestMutexTryEnter(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		if !mu.TryEnter(self) {
			t.Error("TryEnter on free mutex failed")
		}
		if mu.TryEnter(self) {
			t.Error("TryEnter on held mutex succeeded")
		}
		mu.Exit(self)
		if !mu.TryEnter(self) {
			t.Error("TryEnter after Exit failed")
		}
		mu.Exit(self)
	})
	waitRT(t, m)
}

func TestErrorCheckMutexCatchesMisuse(t *testing.T) {
	w := newWorld(1)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var mu Mutex
		mu.Init(VariantErrorCheck)
		mu.Enter(self)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recursive enter not detected")
				}
			}()
			mu.Enter(self)
		}()
		mu.Exit(self)
		c, _ := self.Runtime().Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			// Release by a non-owner must panic.
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		self.Wait(c.ID())
		func() {
			defer func() {
				if recover() == nil {
					t.Error("release by non-owner not detected")
				}
			}()
			mu.Exit(self)
		}()
	})
	waitRT(t, m)
}

func TestCondVarMonitor(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var cv Cond
	queue := 0
	var produced, consumed int
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		cons, _ := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < 50; i++ {
				mu.Enter(c)
				for queue == 0 {
					cv.Wait(c, &mu) // paper's canonical loop
				}
				queue--
				consumed++
				mu.Exit(c)
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		prod, _ := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < 50; i++ {
				mu.Enter(c)
				queue++
				produced++
				mu.Exit(c)
				cv.Signal(c)
				if i%10 == 0 {
					c.Yield()
				}
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		self.Wait(cons.ID())
		self.Wait(prod.ID())
	})
	waitRT(t, m)
	if produced != 50 || consumed != 50 {
		t.Fatalf("produced %d consumed %d", produced, consumed)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	w := newWorld(2)
	var mu Mutex
	var cv Cond
	ready := false
	var woken atomic.Int64
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		var ids []core.ThreadID
		for i := 0; i < 5; i++ {
			c, _ := r.Create(func(c *core.Thread, _ any) {
				mu.Enter(c)
				for !ready {
					cv.Wait(c, &mu)
				}
				mu.Exit(c)
				woken.Add(1)
			}, nil, core.CreateOpts{Flags: core.ThreadWait})
			ids = append(ids, c.ID())
		}
		// Let all five park in the wait.
		for cv.Waiters() < 5 {
			self.Yield()
		}
		mu.Enter(self)
		ready = true
		mu.Exit(self)
		cv.Broadcast(self)
		for _, id := range ids {
			self.Wait(id)
		}
	})
	waitRT(t, m)
	if woken.Load() != 5 {
		t.Fatalf("woken = %d, want 5", woken.Load())
	}
}

func TestCondTimedWait(t *testing.T) {
	w := newWorld(1)
	var mu Mutex
	var cv Cond
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		mu.Enter(self)
		ok := cv.TimedWait(self, &mu, 5*time.Millisecond)
		mu.Exit(self)
		if ok {
			t.Error("TimedWait reported signal on timeout")
		}
	})
	waitRT(t, m)
}

// TestCondTimedWaitSignalBeatsDeadline: a waiter that a Signal has
// already dequeued consumed that signal, even when its deadline passes
// before it runs again. On one LWP and a Manual clock, the signaller
// pops the waiter and then moves the clock past the deadline before it
// yields, so the waiter's timer fires and finds it off the queue.
// TimedWait must report the signal, not a timeout.
func TestCondTimedWaitSignalBeatsDeadline(t *testing.T) {
	clk := ktime.NewManual()
	k := sim.NewKernel(sim.Config{NCPU: 1, Clock: clk})
	w := &world{k: k, reg: usync.NewRegistry(k)}
	var mu Mutex
	var cv Cond
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		sig, err := self.Runtime().Create(func(c *core.Thread, _ any) {
			for cv.Waiters() == 0 {
				c.Yield()
			}
			cv.Signal(c)
			clk.Advance(time.Second)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		mu.Enter(self)
		ok := cv.TimedWait(self, &mu, time.Millisecond)
		mu.Exit(self)
		if !ok {
			t.Error("TimedWait reported a timeout for a waiter the Signal had already dequeued")
		}
		self.Wait(sig.ID())
	})
	waitRT(t, m)
}

func TestSemaphorePingPong(t *testing.T) {
	// The paper's Figure 6 synchronization benchmark shape.
	w := newWorld(1)
	var s1, s2 Sema
	const rounds = 100
	var hits int
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		t2, _ := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < rounds; i++ {
				s2.P(c)
				s1.V(c)
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		t1, _ := r.Create(func(c *core.Thread, _ any) {
			for i := 0; i < rounds; i++ {
				s2.V(c)
				s1.P(c)
				hits++
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		self.Wait(t1.ID())
		self.Wait(t2.ID())
	})
	waitRT(t, m)
	if hits != rounds {
		t.Fatalf("hits = %d, want %d", hits, rounds)
	}
}

func TestSemaTryPAndCount(t *testing.T) {
	w := newWorld(1)
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		var s Sema
		s.Init(2)
		if !s.TryP(self) || !s.TryP(self) {
			t.Error("TryP failed with positive count")
		}
		if s.TryP(self) {
			t.Error("TryP succeeded at zero")
		}
		s.V(self)
		if s.Count() != 1 {
			t.Errorf("count = %d, want 1", s.Count())
		}
	})
	waitRT(t, m)
}

func TestRWLockManyReadersOneWriter(t *testing.T) {
	w := newWorld(2)
	var rw RWLock
	var concurrentReaders, maxReaders atomic.Int64
	var data int
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		var ids []core.ThreadID
		for i := 0; i < 4; i++ {
			c, _ := r.Create(func(c *core.Thread, _ any) {
				for j := 0; j < 100; j++ {
					rw.Enter(c, RWReader)
					n := concurrentReaders.Add(1)
					for {
						old := maxReaders.Load()
						if n <= old || maxReaders.CompareAndSwap(old, n) {
							break
						}
					}
					_ = data
					concurrentReaders.Add(-1)
					rw.Exit(c)
				}
			}, nil, core.CreateOpts{Flags: core.ThreadWait})
			ids = append(ids, c.ID())
		}
		wr, _ := r.Create(func(c *core.Thread, _ any) {
			for j := 0; j < 50; j++ {
				rw.Enter(c, RWWriter)
				if concurrentReaders.Load() != 0 {
					t.Error("writer saw active readers")
				}
				data++
				rw.Exit(c)
				c.Yield()
			}
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		ids = append(ids, wr.ID())
		for _, id := range ids {
			self.Wait(id)
		}
	})
	waitRT(t, m)
	if data != 50 {
		t.Fatalf("writer made %d updates, want 50", data)
	}
}

func TestRWDowngradeKeepsLockAndWakesReaders(t *testing.T) {
	w := newWorld(2)
	var rw RWLock
	var readerRan atomic.Bool
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		rw.Enter(self, RWWriter)
		rd, _ := r.Create(func(c *core.Thread, _ any) {
			rw.Enter(c, RWReader)
			readerRan.Store(true)
			rw.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		// Let the reader block on the writer hold.
		for i := 0; i < 20; i++ {
			self.Yield()
		}
		rw.Downgrade(self) // reader should now get in alongside us
		self.Wait(rd.ID())
		if nr, wr := rw.Holders(); nr != 1 || wr {
			t.Errorf("after downgrade+reader exit: readers=%d writer=%v", nr, wr)
		}
		rw.Exit(self)
	})
	waitRT(t, m)
	if !readerRan.Load() {
		t.Fatal("reader never ran after downgrade")
	}
}

func TestRWTryUpgrade(t *testing.T) {
	w := newWorld(1)
	var rw RWLock
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		rw.Enter(self, RWReader)
		if !rw.TryUpgrade(self) {
			t.Error("sole reader failed to upgrade")
		}
		if nr, wr := rw.Holders(); nr != 0 || !wr {
			t.Errorf("after upgrade: readers=%d writer=%v", nr, wr)
		}
		rw.Exit(self)

		// With two readers, upgrade must fail.
		rw.Enter(self, RWReader)
		c, _ := self.Runtime().Create(func(c *core.Thread, _ any) {
			rw.Enter(c, RWReader)
			if rw.TryUpgrade(c) {
				t.Error("upgrade succeeded with two readers")
			}
			rw.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		self.Wait(c.ID())
		rw.Exit(self)
	})
	waitRT(t, m)
}

func TestRWTryEnter(t *testing.T) {
	w := newWorld(1)
	var rw RWLock
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		if !rw.TryEnter(self, RWReader) {
			t.Error("reader tryenter on free lock failed")
		}
		if rw.TryEnter(self, RWWriter) {
			t.Error("writer tryenter succeeded with a reader")
		}
		if !rw.TryEnter(self, RWReader) {
			t.Error("second reader tryenter failed")
		}
		rw.Exit(self)
		rw.Exit(self)
		if !rw.TryEnter(self, RWWriter) {
			t.Error("writer tryenter on free lock failed")
		}
		rw.Exit(self)
	})
	waitRT(t, m)
}

// TestFigure1CrossProcessSync reproduces the paper's Figure 1: two
// processes map the same file at different virtual addresses; a mutex
// inside the file synchronizes their threads, and the lock's state
// outlives the first process.
func TestFigure1CrossProcessSync(t *testing.T) {
	w := newWorld(2)
	// The "file" with a mutex at offset 0 and a record counter the
	// test reads back at offset 64.
	file := vm.NewAnon(vm.PageSize) // stands in for a vfs file object here
	const recOff = 64

	record := func(delta uint64) core.Func {
		return func(self *core.Thread, _ any) {
			mu := &Mutex{}
			mu.InitShared(w.reg.Var(file, 0))
			for i := 0; i < 200; i++ {
				mu.Enter(self)
				// Read-modify-write of the shared record —
				// racy without the file lock.
				var b [8]byte
				file.ReadObject(b[:], recOff)
				v := uint64(b[0]) | uint64(b[1])<<8
				v += delta
				b[0], b[1] = byte(v), byte(v>>8)
				file.WriteObject(b[:], recOff)
				mu.Exit(self)
			}
		}
	}
	m1 := w.boot(t, "p1", core.Config{}, record(1))
	m2 := w.boot(t, "p2", core.Config{}, record(1))
	waitRT(t, m1)
	waitRT(t, m2)
	var b [8]byte
	file.ReadObject(b[:], recOff)
	got := uint64(b[0]) | uint64(b[1])<<8
	if got != 400 {
		t.Fatalf("record = %d, want 400 (lost cross-process updates)", got)
	}
}

func TestSharedSemaphoreAcrossProcesses(t *testing.T) {
	w := newWorld(2)
	obj := vm.NewAnon(vm.PageSize)
	// Producer posts 50 tokens; consumer in another process takes
	// them all.
	var consumed atomic.Int64
	cons := w.boot(t, "consumer", core.Config{}, func(self *core.Thread, _ any) {
		var s Sema
		s.InitShared(w.reg.Var(obj, 0), 0)
		for i := 0; i < 50; i++ {
			s.P(self)
			consumed.Add(1)
		}
	})
	prod := w.boot(t, "producer", core.Config{}, func(self *core.Thread, _ any) {
		var s Sema
		s.InitShared(w.reg.Var(obj, 0), 0)
		for i := 0; i < 50; i++ {
			s.V(self)
			if i%8 == 0 {
				self.Yield()
			}
		}
	})
	waitRT(t, prod)
	waitRT(t, cons)
	if consumed.Load() != 50 {
		t.Fatalf("consumed = %d, want 50", consumed.Load())
	}
}

func TestSharedMutexStateOutlivesProcess(t *testing.T) {
	w := newWorld(1)
	obj := vm.NewAnon(vm.PageSize)
	// Process 1 locks the mutex and dies without unlocking — the
	// state persists in the object bytes beyond the process's
	// lifetime: the robust sweep records the death there, and a later
	// process observes it as ErrOwnerDead.
	m1 := w.boot(t, "locker", core.Config{}, func(self *core.Thread, _ any) {
		mu := &Mutex{}
		mu.InitShared(w.reg.Var(obj, 0))
		mu.Enter(self)
	})
	waitRT(t, m1)
	m2 := w.boot(t, "checker", core.Config{}, func(self *core.Thread, _ any) {
		mu := &Mutex{}
		mu.InitShared(w.reg.Var(obj, 0))
		if err := mu.EnterErr(self); err != ErrOwnerDead {
			t.Errorf("EnterErr = %v, want ErrOwnerDead: lock state did not persist beyond creating process", err)
			return
		}
		mu.MakeConsistent(self)
		mu.Exit(self)
	})
	waitRT(t, m2)
}

func TestSharedCondAcrossProcesses(t *testing.T) {
	w := newWorld(2)
	obj := vm.NewAnon(vm.PageSize)
	// Layout: mutex at 0, cond at 16, flag word at 64.
	flagOff := int64(64)
	var sawFlag atomic.Bool
	waiter := w.boot(t, "waiter", core.Config{}, func(self *core.Thread, _ any) {
		mu := &Mutex{}
		mu.InitShared(w.reg.Var(obj, 0))
		cv := &Cond{}
		cv.InitShared(w.reg.Var(obj, 16))
		mu.Enter(self)
		for {
			var b [8]byte
			obj.ReadObject(b[:], flagOff)
			if b[0] != 0 {
				break
			}
			cv.Wait(self, mu)
		}
		sawFlag.Store(true)
		mu.Exit(self)
	})
	setter := w.boot(t, "setter", core.Config{}, func(self *core.Thread, _ any) {
		mu := &Mutex{}
		mu.InitShared(w.reg.Var(obj, 0))
		cv := &Cond{}
		cv.InitShared(w.reg.Var(obj, 16))
		time.Sleep(2 * time.Millisecond)
		mu.Enter(self)
		obj.WriteObject([]byte{1}, flagOff)
		mu.Exit(self)
		cv.Broadcast(self)
	})
	waitRT(t, setter)
	waitRT(t, waiter)
	if !sawFlag.Load() {
		t.Fatal("cross-process condition wait never satisfied")
	}
}

func TestSharedRWLockAcrossProcesses(t *testing.T) {
	w := newWorld(2)
	obj := vm.NewAnon(vm.PageSize)
	var writes atomic.Int64
	mk := func() core.Func {
		return func(self *core.Thread, _ any) {
			rw := &RWLock{}
			rw.InitShared(w.reg.Var(obj, 0))
			for i := 0; i < 50; i++ {
				rw.Enter(self, RWWriter)
				writes.Add(1)
				rw.Exit(self)
				rw.Enter(self, RWReader)
				rw.Exit(self)
			}
		}
	}
	m1 := w.boot(t, "p1", core.Config{}, mk())
	m2 := w.boot(t, "p2", core.Config{}, mk())
	waitRT(t, m1)
	waitRT(t, m2)
	if writes.Load() != 100 {
		t.Fatalf("writes = %d, want 100", writes.Load())
	}
}

func TestBoundThreadsUseKernelSync(t *testing.T) {
	// Bound threads block through the kernel on contention but the
	// semantics are identical.
	w := newWorld(2)
	var mu Mutex
	counter := 0
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		var ids []core.ThreadID
		for i := 0; i < 2; i++ {
			c, _ := r.Create(func(c *core.Thread, _ any) {
				for j := 0; j < 300; j++ {
					mu.Enter(c)
					counter++
					mu.Exit(c)
				}
			}, nil, core.CreateOpts{Flags: core.ThreadWait | core.ThreadBindLWP})
			ids = append(ids, c.ID())
		}
		for _, id := range ids {
			self.Wait(id)
		}
	})
	waitRT(t, m)
	if counter != 600 {
		t.Fatalf("counter = %d, want 600", counter)
	}
}
