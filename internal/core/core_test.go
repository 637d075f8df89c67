package core

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
)

// rt boots a kernel and a runtime and runs mainFn as the main thread.
// It returns the runtime; the caller typically waits on rt.Exited().
func rt(t *testing.T, ncpu int, cfg Config, mainFn Func) *Runtime {
	t.Helper()
	k := sim.NewKernel(sim.Config{NCPU: ncpu})
	p := k.NewProcess("test", nil)
	m := NewRuntime(k, p, cfg)
	if _, err := m.Start(mainFn, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitExit(t *testing.T, m *Runtime) {
	t.Helper()
	select {
	case <-m.Exited():
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for process exit")
	}
}

func TestMainThreadRunsAndProcessExits(t *testing.T) {
	var ran atomic.Bool
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		ran.Store(true)
	})
	waitExit(t, m)
	if !ran.Load() {
		t.Fatal("main thread did not run")
	}
	if st := m.Process().State(); st != sim.ProcZombie && st != sim.ProcDead {
		t.Fatalf("process state = %v", st)
	}
}

func TestCreateAndWait(t *testing.T) {
	var sum atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		var ids []ThreadID
		for i := 1; i <= 5; i++ {
			i := i
			child, err := self.Runtime().Create(func(c *Thread, _ any) {
				sum.Add(int64(i))
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, child.ID())
		}
		for _, id := range ids {
			got, err := self.Wait(id)
			if err != nil || got != id {
				t.Errorf("Wait(%d) = %d, %v", id, got, err)
			}
		}
		if sum.Load() != 15 {
			t.Errorf("sum = %d, want 15", sum.Load())
		}
	})
	waitExit(t, m)
}

func TestThousandsOfThreadsOnOneLWP(t *testing.T) {
	// The window-system argument: thousands of threads, one LWP.
	const n = 2000
	var count atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		ids := make([]ThreadID, 0, n)
		for i := 0; i < n; i++ {
			c, err := self.Runtime().Create(func(c *Thread, _ any) {
				count.Add(1)
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, c.ID())
		}
		for _, id := range ids {
			if _, err := self.Wait(id); err != nil {
				t.Error(err)
				return
			}
		}
	})
	waitExit(t, m)
	if count.Load() != n {
		t.Fatalf("ran %d threads, want %d", count.Load(), n)
	}
	if ps := m.PoolSize(); ps > 2 {
		t.Fatalf("pool grew to %d LWPs without reason", ps)
	}
}

func TestWaitAnyReturnsExitedThread(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		c, _ := self.Runtime().Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		got, err := self.Wait(0)
		if err != nil || got != c.ID() {
			t.Errorf("Wait(0) = %d, %v; want %d", got, err, c.ID())
		}
	})
	waitExit(t, m)
}

func TestWaitErrors(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		if _, err := self.Wait(self.ID()); err != ErrSelfWait {
			t.Errorf("self wait err = %v", err)
		}
		if _, err := self.Wait(9999); err != ErrNoThread {
			t.Errorf("missing wait err = %v", err)
		}
		nc, _ := self.Runtime().Create(func(c *Thread, _ any) {
			c.Yield()
		}, nil, CreateOpts{}) // no ThreadWait
		if _, err := self.Wait(nc.ID()); err != ErrNotWaited && err != ErrNoThread {
			t.Errorf("not-waited err = %v", err)
		}
	})
	waitExit(t, m)
}

func TestYieldInterleavesThreads(t *testing.T) {
	var order []int
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		mk := func(tag int) Func {
			return func(c *Thread, _ any) {
				for i := 0; i < 3; i++ {
					order = append(order, tag)
					c.Yield()
				}
			}
		}
		a, _ := self.Runtime().Create(mk(1), nil, CreateOpts{Flags: ThreadWait})
		b, _ := self.Runtime().Create(mk(2), nil, CreateOpts{Flags: ThreadWait})
		self.Wait(a.ID())
		self.Wait(b.ID())
		// With one LWP and cooperative yields the two threads must
		// interleave: we should not see all of one tag before any
		// of the other.
		first := order[0]
		interleaved := false
		for _, v := range order[:4] {
			if v != first {
				interleaved = true
			}
		}
		if !interleaved {
			t.Errorf("no interleaving: %v", order)
		}
	})
	waitExit(t, m)
}

func TestHigherPriorityRunsFirst(t *testing.T) {
	var order []int
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		mk := func(tag int) Func {
			return func(*Thread, any) { order = append(order, tag) }
		}
		lo, _ := self.Runtime().Create(mk(1), nil, CreateOpts{Flags: ThreadWait, Priority: 1})
		hi, _ := self.Runtime().Create(mk(2), nil, CreateOpts{Flags: ThreadWait, Priority: 9})
		self.Wait(lo.ID())
		self.Wait(hi.ID())
		if len(order) != 2 || order[0] != 2 {
			t.Errorf("order = %v, want high (2) first", order)
		}
	})
	waitExit(t, m)
}

func TestParkUnparkPingPong(t *testing.T) {
	const rounds = 20
	var a, b *Thread
	var hits atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		a, _ = r.Create(func(c *Thread, _ any) {
			for i := 0; i < rounds; i++ {
				c.Park() // until b (or main) wakes us
				hits.Add(1)
				b.Unpark()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		b, _ = r.Create(func(c *Thread, _ any) {
			for i := 0; i < rounds; i++ {
				a.Unpark()
				c.Park()
				hits.Add(1)
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(a.ID())
		self.Wait(b.ID())
	})
	waitExit(t, m)
	if hits.Load() != 2*rounds {
		t.Fatalf("hits = %d, want %d", hits.Load(), 2*rounds)
	}
}

func TestThreadStopFlagAndContinue(t *testing.T) {
	var ran atomic.Bool
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		c, _ := r.Create(func(*Thread, any) { ran.Store(true) }, nil,
			CreateOpts{Flags: ThreadWait | ThreadStop})
		// Give it a chance to (incorrectly) run.
		self.Yield()
		if ran.Load() {
			t.Error("THREAD_STOP thread ran before continue")
		}
		if c.State() != ThreadStopped {
			t.Errorf("state = %v, want stopped", c.State())
		}
		r.Continue(c)
		self.Wait(c.ID())
		if !ran.Load() {
			t.Error("thread did not run after continue")
		}
	})
	waitExit(t, m)
}

func TestStopRunningThread(t *testing.T) {
	var progress atomic.Int64
	m := rt(t, 2, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		c, _ := r.Create(func(c *Thread, _ any) {
			for i := 0; i < 1_000_000; i++ {
				progress.Add(1)
				c.Checkpoint()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		r.SetConcurrency(2) // let it actually run in parallel
		for progress.Load() == 0 {
			self.Yield()
		}
		if err := self.Stop(c); err != nil {
			t.Error(err)
			return
		}
		snap := progress.Load()
		for i := 0; i < 50; i++ {
			self.Yield()
		}
		if got := progress.Load(); got > snap {
			t.Errorf("stopped thread advanced: %d -> %d", snap, got)
		}
		r.Continue(c)
		self.Wait(c.ID())
		if progress.Load() != 1_000_000 {
			t.Errorf("final progress = %d", progress.Load())
		}
	})
	waitExit(t, m)
}

func TestSetConcurrencyGrowsAndShrinks(t *testing.T) {
	m := rt(t, 4, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		if err := r.SetConcurrency(4); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100 && r.Concurrency() < 4; i++ {
			self.Yield()
			time.Sleep(time.Millisecond)
		}
		if got := r.Concurrency(); got != 4 {
			t.Errorf("concurrency = %d, want 4", got)
		}
		if err := r.SetConcurrency(1); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 1000 && r.Concurrency() > 1; i++ {
			self.Yield()
			time.Sleep(time.Millisecond)
		}
		if got := r.Concurrency(); got != 1 {
			t.Errorf("concurrency after shrink = %d, want 1", got)
		}
	})
	waitExit(t, m)
}

func TestBoundThreadRunsOnOwnLWP(t *testing.T) {
	m := rt(t, 2, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		var boundLWP *sim.LWP
		c, err := r.Create(func(c *Thread, _ any) {
			boundLWP = c.LWP()
		}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
		if err != nil {
			t.Error(err)
			return
		}
		if !c.Bound() {
			t.Error("thread not bound")
		}
		self.Wait(c.ID())
		if boundLWP == nil || boundLWP == self.LWP() {
			t.Error("bound thread did not run on its own LWP")
		}
	})
	waitExit(t, m)
}

func TestBoundThreadRealtimePriority(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		c, _ := r.Create(func(c *Thread, _ any) {
			// A bound thread can enter the RT class: system-wide
			// priority, the paper's real-time story.
			if err := r.Kernel().Priocntl(c.LWP(), sim.ClassRT, 10); err != nil {
				t.Error(err)
			}
			if c.LWP().Class() != sim.ClassRT {
				t.Error("LWP not in RT class")
			}
		}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
		self.Wait(c.ID())
	})
	waitExit(t, m)
}

func TestTLSRegisterFreezeAndIsolation(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	p := k.NewProcess("test", nil)
	m := NewRuntime(k, p, Config{})
	v, err := m.RegisterUnshared(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterUnshared(0); err == nil {
		t.Fatal("zero-size TLS accepted")
	}
	if _, err := m.Start(func(self *Thread, arg any) {
		// Frozen now.
		if _, err := self.Runtime().RegisterUnshared(8); err == nil {
			t.Error("TLS registration allowed after threads started")
		}
		if self.TLSUint64(v) != 0 {
			t.Error("TLS not zeroed")
		}
		self.SetTLSUint64(v, 42)
		c, _ := self.Runtime().Create(func(c *Thread, _ any) {
			if c.TLSUint64(v) != 0 {
				t.Error("child saw parent's TLS value")
			}
			c.SetTLSUint64(v, 7)
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(c.ID())
		if self.TLSUint64(v) != 42 {
			t.Error("TLS value lost")
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	waitExit(t, m)
	_ = v
}

func TestErrnoPerThread(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		self.SetErrno(4) // EINTR, say
		c, _ := self.Runtime().Create(func(c *Thread, _ any) {
			if c.Errno() != 0 {
				t.Error("child inherited errno")
			}
			c.SetErrno(9)
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(c.ID())
		if self.Errno() != 4 {
			t.Errorf("errno = %d, want 4", self.Errno())
		}
	})
	waitExit(t, m)
}

func TestThreadKillDeliversToTarget(t *testing.T) {
	var handled atomic.Int64
	var victim *Thread
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.Signal(sim.SIGUSR1, sim.SigCatch, func(ht *Thread, s sim.Signal) {
			if ht == victim {
				handled.Add(1)
			} else {
				t.Errorf("handler ran on thread %d, want victim", ht.ID())
			}
		})
		victim, _ = r.Create(func(c *Thread, _ any) {
			for handled.Load() == 0 {
				c.Yield()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Yield() // let the victim start
		if err := self.Kill(victim, sim.SIGUSR1); err != nil {
			t.Error(err)
		}
		self.Wait(victim.ID())
	})
	waitExit(t, m)
	if handled.Load() != 1 {
		t.Fatalf("handled = %d, want 1", handled.Load())
	}
}

func TestThreadKillMaskedPendsUntilUnmask(t *testing.T) {
	var handled atomic.Int64
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.Signal(sim.SIGUSR2, sim.SigCatch, func(*Thread, sim.Signal) { handled.Add(1) })
		self.SigSetMask(sim.SigBlock, sim.MakeSigset(sim.SIGUSR2))
		self.Kill(self, sim.SIGUSR2)
		self.Yield()
		if handled.Load() != 0 {
			t.Error("masked signal was handled")
		}
		if !self.Pending().Has(sim.SIGUSR2) {
			t.Error("signal not pending on thread")
		}
		self.SigSetMask(sim.SigUnblock, sim.MakeSigset(sim.SIGUSR2))
		if handled.Load() != 1 {
			t.Errorf("handled = %d after unmask, want 1", handled.Load())
		}
	})
	waitExit(t, m)
}

func TestTrapHandledByRaisingThread(t *testing.T) {
	var handledBy ThreadID
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.Signal(sim.SIGFPE, sim.SigCatch, func(ht *Thread, s sim.Signal) {
			handledBy = ht.ID()
		})
		c, _ := r.Create(func(c *Thread, _ any) {
			c.RaiseTrap(sim.SIGFPE)
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(c.ID())
		if handledBy != c.ID() {
			t.Errorf("trap handled by %d, want %d", handledBy, c.ID())
		}
	})
	waitExit(t, m)
}

func TestProcessInterruptReachesUnmaskedThread(t *testing.T) {
	var handled atomic.Int64
	var m *Runtime
	m = rt(t, 1, Config{}, func(self *Thread, arg any) {
		self.Runtime().Signal(sim.SIGUSR1, sim.SigCatch, func(*Thread, sim.Signal) {
			handled.Add(1)
		})
		for handled.Load() == 0 {
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
	})
	// Post from outside, like kill(2) from another process — but
	// only once the handler is installed, or the default action
	// (exit) would kill the process.
	for m.Kernel().Action(m.Process(), sim.SIGUSR1) != sim.SigCatch {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 100 && handled.Load() == 0; i++ {
		m.Kernel().PostSignal(m.Process(), sim.SIGUSR1)
		time.Sleep(time.Millisecond)
	}
	waitExit(t, m)
	if handled.Load() == 0 {
		t.Fatal("interrupt never handled")
	}
}

func TestSigwaitingGrowsPool(t *testing.T) {
	var grew atomic.Bool
	m := rt(t, 2, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		// A runnable thread that will only run if the pool grows.
		r.Create(func(c *Thread, _ any) {
			grew.Store(true)
		}, nil, CreateOpts{})
		// Block the only LWP indefinitely in the kernel.
		wq := sim.NewWaitQ("ext")
		k := r.Kernel()
		k.SyscallEnter(self.LWP())
		res, _ := k.SleepIf(self.LWP(), wq, nil, sim.SleepOpts{Indefinite: true, Timeout: time.Second})
		k.SyscallExit(self.LWP())
		_ = res
		for i := 0; i < 1000 && !grew.Load(); i++ {
			self.Yield()
			time.Sleep(time.Millisecond)
		}
	})
	waitExit(t, m)
	if !grew.Load() {
		t.Fatal("SIGWAITING did not grow the pool; runnable thread starved")
	}
}

func TestNoGrowthWhenSigwaitingDisabled(t *testing.T) {
	var ran atomic.Bool
	m := rt(t, 2, Config{DisableSigwaiting: true}, func(self *Thread, arg any) {
		r := self.Runtime()
		r.Create(func(c *Thread, _ any) { ran.Store(true) }, nil, CreateOpts{})
		wq := sim.NewWaitQ("ext")
		k := r.Kernel()
		k.SyscallEnter(self.LWP())
		k.SleepIf(self.LWP(), wq, nil, sim.SleepOpts{Indefinite: true, Timeout: 50 * time.Millisecond})
		k.SyscallExit(self.LWP())
	})
	waitExit(t, m)
	// The runnable thread eventually ran (after the timeout), but
	// the pool must not have grown.
	if m.PoolSize() > 1 {
		t.Fatalf("pool grew to %d with SIGWAITING disabled", m.PoolSize())
	}
	_ = ran.Load()
}

func TestSetjmpLongjmp(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		v := self.Setjmp(func(jb *Jmpbuf) {
			deep := func() { self.Longjmp(jb, 3) }
			deep()
			t.Error("unreached after longjmp")
		})
		if v != 3 {
			t.Errorf("setjmp returned %d, want 3", v)
		}
		// Cross-thread longjmp is an error.
		var childErr error
		self.Setjmp(func(jb *Jmpbuf) {
			c, _ := self.Runtime().Create(func(c *Thread, _ any) {
				childErr = c.Longjmp(jb, 1)
			}, nil, CreateOpts{Flags: ThreadWait})
			self.Wait(c.ID())
		})
		if childErr != ErrJmpCrossThread {
			t.Errorf("cross-thread longjmp err = %v", childErr)
		}
	})
	waitExit(t, m)
}

func TestThreadExitFromDeepCall(t *testing.T) {
	var after atomic.Bool
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		c, _ := self.Runtime().Create(func(c *Thread, _ any) {
			func() { c.Exit() }()
			after.Store(true)
		}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(c.ID())
	})
	waitExit(t, m)
	if after.Load() {
		t.Fatal("code after thread_exit ran")
	}
}

func TestDaemonThreadsDoNotHoldProcess(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		self.Runtime().Create(func(c *Thread, _ any) {
			for {
				c.Park() // daemon parks forever
			}
		}, nil, CreateOpts{Flags: ThreadDaemon})
		self.Yield()
	})
	waitExit(t, m) // must exit although the daemon never does
}

func TestCreateAfterExitFails(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {})
	waitExit(t, m)
	if _, err := m.Create(func(*Thread, any) {}, nil, CreateOpts{}); err == nil {
		t.Fatal("Create succeeded on dead runtime")
	}
}

func TestStackCachedAcrossCreates(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, arg any) {
		r := self.Runtime()
		c1, _ := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		self.Wait(c1.ID())
		r.mu.Lock()
		cached := len(r.stackCache)
		r.mu.Unlock()
		if cached == 0 {
			t.Error("no stack cached after waited thread exit")
		}
	})
	waitExit(t, m)
}

func TestCallerSuppliedStackHoldsTLS(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	p := k.NewProcess("test", nil)
	m := NewRuntime(k, p, Config{})
	v, _ := m.RegisterUnshared(16)
	stack := make([]byte, 4096)
	if _, err := m.Start(func(self *Thread, arg any) {
		c, err := self.Runtime().Create(func(c *Thread, _ any) {
			c.SetTLSUint64(v, 0xdead)
		}, nil, CreateOpts{Flags: ThreadWait, Stack: stack})
		if err != nil {
			t.Error(err)
			return
		}
		self.Wait(c.ID())
		// TLS was carved from the top of the supplied stack.
		found := false
		for _, b := range stack[len(stack)-16:] {
			if b != 0 {
				found = true
			}
		}
		if !found {
			t.Error("TLS not placed in caller-supplied stack")
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.Exited():
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	// Too-small stacks are rejected.
	if _, err := m.Create(func(*Thread, any) {}, nil, CreateOpts{Stack: make([]byte, 4)}); err == nil {
		t.Fatal("tiny stack accepted")
	}
}
