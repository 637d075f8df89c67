package mt

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

// Fork/exec edge cases: interactions between process duplication and
// threads that are mid-flight in the kernel or have signals pending.

// yieldUntil spins the calling thread until cond holds, failing the
// test (and returning false) if it never does.
func yieldUntil(t *testing.T, tt *Thread, what string, cond func() bool) bool {
	t.Helper()
	for i := 0; i < 200000; i++ {
		if cond() {
			return true
		}
		tt.Yield()
	}
	t.Errorf("never observed: %s", what)
	return false
}

// sleepingLWPs counts the process's LWPs blocked in the kernel on a
// wait queue (not library-parked dispatchers).
func sleepingLWPs(p *Proc) int {
	n := 0
	for _, l := range p.Process().LWPs() {
		if l.State() == sim.LWPSleeping {
			n++
		}
	}
	return n
}

// TestForkPendingSignalNotInherited: a signal pending on the parent
// at fork time must not be delivered in the child (POSIX/SVR4).
func TestForkPendingSignalNotInherited(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var parentCaught, childCaught atomic.Bool
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rt.Signal(SIGUSR1, SigCatch, func(*Thread, Signal) { parentCaught.Store(true) })
		// Mask the signal on the only thread, then post it: it pends
		// at the process.
		tt.SigSetMask(SigBlock, sim.MakeSigset(SIGUSR1))
		p.Kill(SIGUSR1)
		childDone := make(chan struct{})
		_, err := p.Fork1(tt, func(ct *Thread, _ any) {
			crt := ct.Runtime()
			crt.Signal(SIGUSR1, SigCatch, func(*Thread, Signal) { childCaught.Store(true) })
			// The child's thread has nothing masked: if the pending
			// SIGUSR1 had been inherited it would deliver here.
			for i := 0; i < 200; i++ {
				ct.Yield()
			}
			close(childDone)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		<-childDone
		for {
			if _, werr := p.WaitChild(tt, -1); !errors.Is(werr, sim.ErrIntr) {
				break
			}
		}
		// Back in the parent the signal is still pending; unmasking
		// releases it.
		tt.SigSetMask(SigUnblock, sim.MakeSigset(SIGUSR1))
		yieldUntil(t, tt, "pending signal delivered to parent", parentCaught.Load)
	})
	waitProc(t, p)
	if childCaught.Load() {
		t.Fatal("pending SIGUSR1 was inherited by the fork1 child")
	}
	if !parentCaught.Load() {
		t.Fatal("pending SIGUSR1 lost in the parent")
	}
}

// TestFork1LeavesSleepingSiblingIntact: fork1 duplicates only the
// caller. A sibling thread blocked in an interruptible pipe read must
// keep sleeping (no EINTR — that is full fork's behaviour), and the
// child must come up with a single LWP, not copies of the parent's.
func TestFork1LeavesSleepingSiblingIntact(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var got atomic.Value
	var readErr atomic.Value
	var childLWPs atomic.Int64
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rt.SetConcurrency(2)
		rfd, wfd, _ := p.Pipe(tt)
		crfd, cwfd, _ := p.Pipe(tt) // child release gate (fd table is shared)
		sib, _ := rt.Create(func(c *Thread, _ any) {
			b := make([]byte, 8)
			n, err := p.Read(c, rfd, b)
			if err != nil {
				readErr.Store(err)
				return
			}
			got.Store(string(b[:n]))
		}, nil, CreateOpts{Flags: ThreadWait})
		if !yieldUntil(t, tt, "sibling blocked in pipe read", func() bool { return sleepingLWPs(p) == 1 }) {
			return
		}
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			// Hold the child alive (blocked in the kernel on the
			// inherited descriptor) while the parent inspects its
			// LWP count.
			b := make([]byte, 1)
			(<-childCh).Read(ct, crfd, b)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		childLWPs.Store(int64(child.Process().NumLWPs()))
		// The sibling must still be asleep in the read — fork1 does
		// not interrupt other LWPs' system calls.
		if sleepingLWPs(p) != 1 {
			t.Error("sibling's pipe read was disturbed by fork1")
		}
		p.Write(tt, wfd, []byte("later"))
		tt.Wait(sib.ID())
		p.Write(tt, cwfd, []byte("g")) // release the child
		for {
			if _, werr := p.WaitChild(tt, -1); !errors.Is(werr, sim.ErrIntr) {
				break
			}
		}
	})
	waitProc(t, p)
	if err, ok := readErr.Load().(error); ok {
		t.Fatalf("sibling read failed: %v", err)
	}
	if got.Load() != "later" {
		t.Fatalf("sibling read %v, want \"later\"", got.Load())
	}
	if n := childLWPs.Load(); n != 1 {
		t.Fatalf("fork1 child has %d LWPs, want 1", n)
	}
}

// TestForkInterruptsSiblingSyscall: full fork makes interruptible
// system calls in progress on other LWPs return EINTR (paper §4).
func TestForkInterruptsSiblingSyscall(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var readErr atomic.Value
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rt.SetConcurrency(2)
		rfd, _, _ := p.Pipe(tt)
		sib, _ := rt.Create(func(c *Thread, _ any) {
			b := make([]byte, 8)
			_, err := p.Read(c, rfd, b)
			readErr.Store(err)
		}, nil, CreateOpts{Flags: ThreadWait})
		if !yieldUntil(t, tt, "sibling blocked in pipe read", func() bool { return sleepingLWPs(p) == 1 }) {
			return
		}
		if _, err := p.Fork(tt, func(ct *Thread, _ any) {}, nil); err != nil {
			t.Error(err)
			return
		}
		tt.Wait(sib.ID())
		for {
			if _, werr := p.WaitChild(tt, -1); !errors.Is(werr, sim.ErrIntr) {
				break
			}
		}
	})
	waitProc(t, p)
	err, _ := readErr.Load().(error)
	if !errors.Is(err, sim.ErrIntr) {
		t.Fatalf("sibling read returned %v, want EINTR", err)
	}
}

// TestExecDestroysSleepingSibling: exec must tear down an LWP blocked
// in an interruptible kernel sleep, not wait for it to wake on its
// own; the new image starts with exactly one thread.
func TestExecDestroysSleepingSibling(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var newImageRan atomic.Bool
	var siblingFinished atomic.Bool
	var threadsInNewImage atomic.Int64
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rt.SetConcurrency(2)
		rfd, _, _ := p.Pipe(tt)
		rt.Create(func(c *Thread, _ any) {
			b := make([]byte, 8)
			p.Read(c, rfd, b) // sleeps forever; exec must unwind it
			siblingFinished.Store(true)
		}, nil, CreateOpts{})
		if !yieldUntil(t, tt, "sibling blocked in pipe read", func() bool { return sleepingLWPs(p) == 1 }) {
			return
		}
		err := p.Exec(tt, "newimage", func(nt *Thread, _ any) {
			newImageRan.Store(true)
			threadsInNewImage.Store(int64(nt.Runtime().NumThreads()))
		}, nil)
		t.Errorf("Exec returned: %v", err)
	})
	select {
	case <-p.Process().Exited():
	case <-time.After(60 * time.Second):
		t.Fatal("timeout waiting for exec'd process")
	}
	if !newImageRan.Load() {
		t.Fatal("new image never ran")
	}
	if siblingFinished.Load() {
		t.Fatal("sibling survived exec and finished its read")
	}
	if n := threadsInNewImage.Load(); n != 1 {
		t.Fatalf("new image sees %d threads, want 1", n)
	}
}

// TestExecOldCallerLeavesNewStacks: the thread that calls exec retires
// in the old image's runtime after AS.Reset has handed the new image
// the same addresses, so its stack carve must be dropped, not
// unmapped. Exec from the THREAD_WAIT main would unmap the new main's
// stack; exec from a detached thread (the old image's second carve)
// the new image's second thread's. A TSD destructor holds the old
// caller in its retire until the new image has both threads, which
// makes the detached case certain rather than racy.
func TestExecOldCallerLeavesNewStacks(t *testing.T) {
	const (
		stack = 64 << 10
		carve = stack + 4096 // stack + red-zone guard page
	)
	for _, detached := range []bool{false, true} {
		name := "ThreadWaitMain"
		if detached {
			name = "Detached"
		}
		t.Run(name, func(t *testing.T) {
			sys := NewSystem(Options{NCPU: 1})
			p := spawn(t, sys, "orig", ProcConfig{DefaultStackSize: stack}, func(p *Proc, tt *Thread) {
				exec := func(old *Thread) {
					built := make(chan struct{})
					key := old.Runtime().CreateTSDKey(func(any) { <-built })
					if err := old.SetSpecific(key, true); err != nil {
						t.Error(err)
					}
					err := p.Exec(old, "newimage", func(nt *Thread, _ any) {
						_, err := nt.Runtime().Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadStop})
						close(built)
						if err != nil {
							t.Error(err)
							nt.ExitProcess(1)
						}
						want := spans(p.AS.Segments())
						if yieldUntil(t, nt, "old caller retired", func() bool { return old.State() == ThreadZombie }) {
							if got := p.AS.Reserved(); got != 2*carve {
								t.Errorf("new image reserves %d bytes after the old caller retired, want %d (2 threads)", got, 2*carve)
							}
							if got := spans(p.AS.Segments()); !slices.Equal(got, want) {
								t.Errorf("new image's mappings (base, length) changed when the old caller retired:\n got %x\nwant %x", got, want)
							}
						}
						nt.ExitProcess(0) // the stopped thread would keep the process alive
					}, nil)
					t.Errorf("Exec returned: %v", err)
				}
				if !detached {
					exec(tt)
					return
				}
				if _, err := tt.Runtime().Create(func(c *Thread, _ any) { exec(c) }, nil, CreateOpts{}); err != nil {
					t.Error(err)
					return
				}
				tt.Park() // exec unwinds it
			})
			select {
			case <-p.Process().Exited():
			case <-time.After(60 * time.Second):
				t.Fatal("timeout waiting for exec'd process")
			}
		})
	}
}

// spans lists the address ranges of a mapping snapshot.
func spans(segs []vm.Segment) [][2]int64 {
	out := make([][2]int64, len(segs))
	for i, s := range segs {
		out[i] = [2]int64{s.Base, s.Length}
	}
	return out
}
