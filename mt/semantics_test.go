package mt

// Tests pinning the trickier UNIX reinterpretations the paper's
// "Multi-threaded Operations" section specifies.

import (
	"errors"
	"sync/atomic"
	"testing"

	"sunosmt/internal/vfs"
)

// TestCloseOnExecDescriptors: exec closes OCloExec descriptors and
// keeps the rest, in the fresh image.
func TestCloseOnExecDescriptors(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var keptOK, cloGone atomic.Bool
	p := spawn(t, sys, "orig", ProcConfig{}, func(p *Proc, tt *Thread) {
		kept, err := p.Open(tt, "/tmp/kept", OCreate|ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		p.Write(tt, kept, []byte("payload"))
		clo, err := p.Open(tt, "/tmp/clo", OCreate|ORdWr|OCloExec)
		if err != nil {
			t.Error(err)
			return
		}
		p.Exec(tt, "fresh", func(nt *Thread, _ any) {
			// The plain descriptor survived with its offset.
			b := make([]byte, 7)
			if _, err := p.Lseek(nt, kept, 0, SeekSet); err != nil {
				t.Error(err)
				return
			}
			if n, err := p.Read(nt, kept, b); err == nil && string(b[:n]) == "payload" {
				keptOK.Store(true)
			}
			// The close-on-exec one is gone.
			if _, err := p.Read(nt, clo, b); errors.Is(err, vfs.ErrBadF) {
				cloGone.Store(true)
			}
		}, nil)
	})
	<-p.Process().Exited()
	if !keptOK.Load() {
		t.Fatal("plain descriptor did not survive exec")
	}
	if !cloGone.Load() {
		t.Fatal("close-on-exec descriptor survived exec")
	}
}

// TestSharedLockHeldAcrossFork pins the paper's fork pitfall: "locks
// that are allocated in memory that is sharable can be held by a
// thread in both processes". The child of a fork sees the parent's
// shared lock as held and must wait for the parent's release.
func TestSharedLockHeldAcrossFork(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var childBlocked, childGot atomic.Bool
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, "/tmp/locked", OCreate|ORdWr)
		va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		mu, err := p.SharedMutexAt(tt, va)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Enter(tt)
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			cp := <-childCh
			// The child maps the same file (same VA here, since
			// the address space was copied).
			cmu, err := cp.SharedMutexAt(ct, va)
			if err != nil {
				t.Error(err)
				return
			}
			if cmu.TryEnter(ct) {
				t.Error("child acquired a lock the parent holds across fork")
				return
			}
			childBlocked.Store(true)
			cmu.Enter(ct) // blocks until the parent releases
			childGot.Store(true)
			cmu.Exit(ct)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		for !childBlocked.Load() {
			tt.Yield()
		}
		mu.Exit(tt)
		p.WaitChild(tt, -1)
	})
	waitProc(t, p)
	if !childGot.Load() {
		t.Fatal("child never acquired the lock after parent's release")
	}
}

// TestSharedVarRejectsPrivateMapping: a lock placed in MAP_PRIVATE
// memory would get a fresh object identity in each process at fork
// and exclude nothing, so naming a shared variable there is refused —
// in the parent and, through the copied mapping, in the child — for
// anonymous and file-backed private mappings alike.
func TestSharedVarRejectsPrivateMapping(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, "/tmp/private", OCreate|ORdWr)
		anon, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapPrivate, -1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		file, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapPrivate, fd, 0)
		if err != nil {
			t.Error(err)
			return
		}
		check := func(who string, p *Proc, tt *Thread) {
			for _, va := range []int64{anon, file} {
				if _, err := p.SharedVar(tt, va); !errors.Is(err, ErrNotShared) {
					t.Errorf("%s: SharedVar(%#x) in a MAP_PRIVATE mapping: err = %v, want ErrNotShared", who, va, err)
				}
				if mu, err := p.SharedMutexAt(tt, va); !errors.Is(err, ErrNotShared) || mu != nil {
					t.Errorf("%s: SharedMutexAt(%#x) in a MAP_PRIVATE mapping: (%v, %v), want (nil, ErrNotShared)", who, va, mu, err)
				}
			}
		}
		check("parent", p, tt)
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) { check("child", <-childCh, ct) }, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		p.WaitChild(tt, -1)
	})
	waitProc(t, p)
}

// TestWaitChildSpecificPID waits for one particular child among two.
func TestWaitChildSpecificPID(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		c1, err := p.Fork1(tt, func(ct *Thread, _ any) { ct.ExitProcess(11) }, nil)
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := p.Fork1(tt, func(ct *Thread, _ any) { ct.ExitProcess(22) }, nil)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := p.WaitChild(tt, c2.PID())
		if err != nil || res.PID != c2.PID() || res.Status != 22 {
			t.Errorf("WaitChild(c2) = %+v, %v", res, err)
		}
		res, err = p.WaitChild(tt, c1.PID())
		if err != nil || res.Status != 11 {
			t.Errorf("WaitChild(c1) = %+v, %v", res, err)
		}
	})
	waitProc(t, p)
}

// TestChdirAffectsAllThreads pins "There is only one working
// directory for each process."
func TestChdirAffectsAllThreads(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1})
	p := spawn(t, sys, "cwd", ProcConfig{}, func(p *Proc, tt *Thread) {
		if err := p.Mkdir(tt, "/work"); err != nil {
			t.Error(err)
			return
		}
		c, _ := tt.Runtime().Create(func(c *Thread, _ any) {
			if err := p.Chdir(c, "/work"); err != nil {
				t.Error(err)
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		tt.Wait(c.ID())
		// This thread now creates files under /work via a relative
		// path: the child's chdir changed *our* directory too.
		fd, err := p.Open(tt, "data.txt", OCreate|OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		p.Close(tt, fd)
		if _, err := sys.FS.Lookup("/", "/work/data.txt"); err != nil {
			t.Errorf("file not created in /work: %v", err)
		}
	})
	waitProc(t, p)
}

// TestMemFaultRaisesSIGSEGVTrap pins the trap path: an access to an
// unmapped address raises SIGSEGV on the faulting thread; caught, it
// runs that thread's handler; uncaught, it kills the process with a
// core dump.
func TestMemFaultRaisesSIGSEGVTrap(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1})
	var caughtBy atomic.Int64
	p := spawn(t, sys, "segv", ProcConfig{}, func(p *Proc, tt *Thread) {
		tt.Runtime().Signal(SIGSEGV, SigCatch, func(ht *Thread, _ Signal) {
			caughtBy.Store(int64(ht.ID()))
		})
		c, _ := tt.Runtime().Create(func(c *Thread, _ any) {
			p.MemWrite(c, 0xdead0000, []byte{1}) // unmapped
		}, nil, CreateOpts{Flags: ThreadWait})
		tt.Wait(c.ID())
		if ThreadID(caughtBy.Load()) != c.ID() {
			t.Errorf("SIGSEGV handled by thread %d, want %d (the faulter)", caughtBy.Load(), c.ID())
		}
	})
	waitProc(t, p)

	// Uncaught: the process dies with SIGSEGV.
	p2 := spawn(t, sys, "segv2", ProcConfig{}, func(p *Proc, tt *Thread) {
		p.MemWrite(tt, 0xdead0000, []byte{1})
		t.Error("survived uncaught SIGSEGV")
	})
	_, sig := waitProc(t, p2)
	if sig != SIGSEGV {
		t.Fatalf("killed by %v, want SIGSEGV", sig)
	}
}
