package mt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
)

// spawn starts a process whose main thread receives its own Proc
// handle race-free (the body blocks until the handle is delivered).
func spawn(t *testing.T, sys *System, name string, cfg ProcConfig, body func(p *Proc, tt *Thread)) *Proc {
	t.Helper()
	ch := make(chan *Proc, 1)
	p, err := sys.Spawn(name, func(tt *Thread, _ any) {
		body(<-ch, tt)
	}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch <- p
	return p
}

func waitProc(t *testing.T, p *Proc) (int, Signal) {
	t.Helper()
	done := make(chan struct{})
	var status int
	var sig Signal
	go func() {
		status, sig = p.WaitExit()
		close(done)
	}()
	select {
	case <-done:
		return status, sig
	case <-time.After(60 * time.Second):
		t.Fatal("timeout waiting for process")
		return 0, 0
	}
}

func TestQuickstartShape(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var ran atomic.Bool
	p := spawn(t, sys, "hello", ProcConfig{}, func(p *Proc, tt *Thread) {
		c, err := tt.Runtime().Create(func(*Thread, any) { ran.Store(true) }, nil,
			CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		tt.Wait(c.ID())
	})
	waitProc(t, p)
	if !ran.Load() {
		t.Fatal("child thread did not run")
	}
}

func TestFileIOBetweenThreads(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1})
	p := spawn(t, sys, "io", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		fd, err := p.Open(tt, "/tmp/shared", OCreate|ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		p.Write(tt, fd, []byte("thread1"))
		// Another thread sees the same descriptor and the same
		// offset (the paper's shared fd-table semantics).
		c, _ := rt.Create(func(c *Thread, _ any) {
			p.Write(c, fd, []byte("+thread2"))
		}, nil, CreateOpts{Flags: ThreadWait})
		tt.Wait(c.ID())
		p.Lseek(tt, fd, 0, SeekSet)
		b := make([]byte, 64)
		n, _ := p.Read(tt, fd, b)
		if string(b[:n]) != "thread1+thread2" {
			t.Errorf("file content %q", b[:n])
		}
	})
	waitProc(t, p)
}

func TestPipeBetweenThreadsBlocksOnlyOneLWP(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var got atomic.Value
	p := spawn(t, sys, "pipe", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rt.SetConcurrency(2)
		rfd, wfd, err := p.Pipe(tt)
		if err != nil {
			t.Error(err)
			return
		}
		reader, _ := rt.Create(func(c *Thread, _ any) {
			b := make([]byte, 32)
			n, err := p.Read(c, rfd, b)
			if err != nil {
				t.Error(err)
				return
			}
			got.Store(string(b[:n]))
		}, nil, CreateOpts{Flags: ThreadWait})
		// While the reader blocks in the kernel, this thread (on
		// another LWP) keeps running and eventually writes.
		for i := 0; i < 10; i++ {
			tt.Yield()
		}
		if _, err := p.Write(tt, wfd, []byte("data")); err != nil {
			t.Error(err)
		}
		tt.Wait(reader.ID())
	})
	waitProc(t, p)
	if got.Load() != "data" {
		t.Fatalf("reader got %v", got.Load())
	}
}

func TestFork1ChildIsSeparateProcess(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var childRan atomic.Bool
	var parentStatus atomic.Int64
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			childRan.Store(true)
			ct.ExitProcess(42)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if child.PID() == p.PID() {
			t.Error("child has parent's pid")
		}
		res, err := p.WaitChild(tt, -1)
		if err != nil {
			t.Error(err)
			return
		}
		parentStatus.Store(int64(res.Status))
	})
	waitProc(t, p)
	if !childRan.Load() {
		t.Fatal("forked child never ran")
	}
	if parentStatus.Load() != 42 {
		t.Fatalf("waited status = %d, want 42", parentStatus.Load())
	}
}

func TestForkSharesFileOffsets(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	content := atomic.Value{}
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, "/tmp/f", OCreate|ORdWr)
		p.Write(tt, fd, []byte("abcdef"))
		p.Lseek(tt, fd, 0, SeekSet)
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			b := make([]byte, 3)
			// The child reads through the shared open-file
			// entry, advancing the parent's offset too.
			(<-childCh).Read(ct, fd, b)
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		p.WaitChild(tt, -1)
		b := make([]byte, 3)
		n, _ := p.Read(tt, fd, b)
		content.Store(string(b[:n]))
	})
	waitProc(t, p)
	if content.Load() != "def" {
		t.Fatalf("parent read %q after child read, want def", content.Load())
	}
}

func TestForkCopiesPrivateMemory(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var childSaw atomic.Value
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		va, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapPrivate, -1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		p.MemWrite(tt, va, []byte("before"))
		childCh := make(chan *Proc, 1)
		child, err := p.Fork1(tt, func(ct *Thread, _ any) {
			// Parent's post-fork write must be invisible.
			b := make([]byte, 6)
			(<-childCh).MemRead(ct, va, b)
			childSaw.Store(string(b))
		}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		childCh <- child
		p.MemWrite(tt, va, []byte("after!"))
		p.WaitChild(tt, -1)
	})
	waitProc(t, p)
	if childSaw.Load() != "before" {
		t.Fatalf("child saw %q, want before", childSaw.Load())
	}
}

func TestFullForkRecreatesThreadsFromContinuations(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var workerInChild atomic.Bool
	p := spawn(t, sys, "parent", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		w, _ := rt.Create(func(c *Thread, _ any) {
			c.SetForkContinuation(func(*Thread, any) {
				workerInChild.Store(true)
			}, nil)
			for i := 0; i < 1000; i++ {
				c.Yield()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		tt.Yield() // let the worker register its continuation
		if _, err := p.Fork(tt, func(ct *Thread, _ any) {}, nil); err != nil {
			t.Error(err)
			return
		}
		p.WaitChild(tt, -1)
		tt.Wait(w.ID())
	})
	waitProc(t, p)
	if !workerInChild.Load() {
		t.Fatal("worker thread not re-created in forked child")
	}
}

func TestExecReplacesImage(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var newImageRan atomic.Bool
	var oldThreadSurvived atomic.Bool
	p := spawn(t, sys, "orig", ProcConfig{}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		// A background thread that must be destroyed by exec.
		rt.Create(func(c *Thread, _ any) {
			for {
				c.Yield()
				c.Park()
			}
		}, nil, CreateOpts{})
		tt.Yield()
		err := p.Exec(tt, "newimage", func(nt *Thread, _ any) {
			newImageRan.Store(true)
			if nt.Runtime().NumThreads() > 1 {
				oldThreadSurvived.Store(true)
			}
		}, nil)
		t.Errorf("Exec returned: %v", err)
	})
	// The original runtime is replaced; wait on the process itself.
	select {
	case <-p.Process().Exited():
	case <-time.After(60 * time.Second):
		t.Fatal("timeout")
	}
	if !newImageRan.Load() {
		t.Fatal("new image never ran")
	}
	if oldThreadSurvived.Load() {
		t.Fatal("old threads survived exec")
	}
	if p.Process().Name() != "newimage" {
		t.Fatalf("process name %q", p.Process().Name())
	}
}

func TestSharedMappingAndLockBetweenProcesses(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	// Both processes open the same file, map it MAP_SHARED, and
	// use a mutex at offset 0 plus a counter at offset 128 — the
	// paper's Figure 1 database-record scenario end to end.
	body := func(p *Proc, tt *Thread) {
		fd, err := p.Open(tt, "/tmp/dbfile", OCreate|ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		va, err := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		if err != nil {
			t.Error(err)
			return
		}
		mu, err := p.SharedMutexAt(tt, va)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 150; i++ {
			mu.Enter(tt)
			var b [2]byte
			p.MemRead(tt, va+128, b[:])
			v := int(b[0]) | int(b[1])<<8
			v++
			b[0], b[1] = byte(v), byte(v>>8)
			p.MemWrite(tt, va+128, b[:])
			mu.Exit(tt)
		}
	}
	p1 := spawn(t, sys, "db1", ProcConfig{}, body)
	p2 := spawn(t, sys, "db2", ProcConfig{}, body)
	waitProc(t, p1)
	waitProc(t, p2)
	// Verify through a third process.
	var got atomic.Int64
	p3 := spawn(t, sys, "check", ProcConfig{}, func(p *Proc, tt *Thread) {
		fd, _ := p.Open(tt, "/tmp/dbfile", ORdWr)
		va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
		var b [2]byte
		p.MemRead(tt, va+128, b[:])
		got.Store(int64(int(b[0]) | int(b[1])<<8))
	})
	waitProc(t, p3)
	if got.Load() != 300 {
		t.Fatalf("counter = %d, want 300", got.Load())
	}
}

func TestPollDrivesSIGWAITINGGrowth(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	var helperRan atomic.Bool
	p := spawn(t, sys, "poller", ProcConfig{}, func(p *Proc, tt *Thread) {
		rfd, wfd, _ := p.Pipe(tt)
		// Runnable thread that can only run if the pool grows
		// while we are stuck in poll.
		tt.Runtime().Create(func(c *Thread, _ any) {
			helperRan.Store(true)
			p.Write(c, wfd, []byte("x")) // releases the poll below
		}, nil, CreateOpts{})
		fds := []PollFD{{FD: rfd, Events: PollIn}}
		if _, err := p.Poll(tt, fds, 0); err != nil && !errors.Is(err, sim.ErrIntr) {
			t.Error(err)
		}
	})
	waitProc(t, p)
	if !helperRan.Load() {
		t.Fatal("helper starved: SIGWAITING growth did not happen")
	}
}

// TestSharedSemaWaitDrivesSIGWAITINGGrowth: the process's only pool
// LWP blocks in the kernel on a process-shared semaphore (or condition
// variable) while the unbound thread that would V (signal) it sits
// runnable. The untimed shared wait is indefinite, so the kernel posts
// SIGWAITING and the pool grows to run the helper; a wait that did not
// count would hang here.
func TestSharedSemaWaitDrivesSIGWAITINGGrowth(t *testing.T) {
	helper := func(tt *Thread, fn func(c *Thread)) error {
		_, err := tt.Runtime().Create(func(c *Thread, _ any) { fn(c) }, nil, CreateOpts{})
		return err
	}
	for _, tc := range []struct {
		name string
		// block creates the helper, then blocks the caller on a shared
		// variable in the page at va until the helper has run.
		block func(p *Proc, tt *Thread, va int64) error
	}{
		{"sema", func(p *Proc, tt *Thread, va int64) error {
			s, err := p.SharedSemaAt(tt, va, 0)
			if err != nil {
				return err
			}
			if err := helper(tt, func(c *Thread) { s.V(c) }); err != nil {
				return err
			}
			s.P(tt)
			return nil
		}},
		{"cond", func(p *Proc, tt *Thread, va int64) error {
			mu, err := p.SharedMutexAt(tt, va)
			if err != nil {
				return err
			}
			cv, err := p.SharedCondAt(tt, va+64)
			if err != nil {
				return err
			}
			signalled := false
			mu.Enter(tt)
			defer mu.Exit(tt)
			if err := helper(tt, func(c *Thread) {
				mu.Enter(c)
				signalled = true
				cv.Signal(c)
				mu.Exit(c)
			}); err != nil {
				return err
			}
			for !signalled {
				cv.Wait(tt, mu)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(Options{NCPU: 2})
			var pool atomic.Int32
			p := spawn(t, sys, "shared-p", ProcConfig{}, func(p *Proc, tt *Thread) {
				fd, _ := p.Open(tt, "/shm", OCreate|ORdWr)
				va, _ := p.Mmap(tt, 0, PageSize, ProtRead|ProtWrite, MapShared, fd, 0)
				if err := tc.block(p, tt, va); err != nil {
					t.Error(err)
					return
				}
				pool.Store(int32(tt.Runtime().PoolSize()))
			})
			waitProc(t, p)
			if got := pool.Load(); got != 2 {
				t.Errorf("PoolSize = %d after the blocked shared wait, want 2 (grown by SIGWAITING)", got)
			}
		})
	}
}

func TestKillFromOutside(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1})
	p := spawn(t, sys, "victim", ProcConfig{}, func(p *Proc, tt *Thread) {
		for {
			tt.Yield()
			time.Sleep(100 * time.Microsecond)
		}
	})
	time.Sleep(2 * time.Millisecond)
	if err := p.Kill(SIGTERM); err != nil {
		t.Fatal(err)
	}
	_, sig := waitProc(t, p)
	if sig != SIGTERM {
		t.Fatalf("killed by %v, want SIGTERM", sig)
	}
}

func TestSyscallErrorsSurface(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1})
	p := spawn(t, sys, "errs", ProcConfig{}, func(p *Proc, tt *Thread) {
		if _, err := p.Open(tt, "/no/such/dir/file", ORdOnly); !errors.Is(err, vfs.ErrNoEnt) {
			t.Errorf("open err = %v", err)
		}
		if _, err := p.Read(tt, 55, make([]byte, 1)); !errors.Is(err, vfs.ErrBadF) {
			t.Errorf("read err = %v", err)
		}
		if err := p.Chdir(tt, "/nowhere"); err == nil {
			t.Error("chdir to missing dir succeeded")
		}
	})
	waitProc(t, p)
}
