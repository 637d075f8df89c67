package vfs

import (
	"errors"
	"io"
	"testing"
	"time"

	"sunosmt/internal/sim"
)

// harness boots a kernel, a process with a ProcFiles table, and runs
// body as the animator of a fresh LWP.
type harness struct {
	k  *sim.Kernel
	fs *FS
	p  *sim.Process
	pf *ProcFiles
	// keeper is parked, and done with the kernel until the process
	// dies, once its State is LWPParked.
	keeper *sim.LWP
}

func newHarness(ncpu int) *harness { return newHarnessCfg(sim.Config{NCPU: ncpu}) }

func newHarnessCfg(cfg sim.Config) *harness {
	k := sim.NewKernel(cfg)
	fs := NewFS(k)
	p := k.NewProcess("test", nil)
	pf := NewProcFiles(fs, p)
	h := &harness{k: k, fs: fs, p: p, pf: pf}
	// A parked keeper LWP holds the process open across the
	// sequential bodies the tests run.
	keeper, err := k.NewLWP(p, sim.ClassTS, 30)
	if err != nil {
		panic(err)
	}
	h.keeper = keeper
	go func() {
		defer func() {
			if r := recover(); r != nil && !sim.IsUnwind(r) {
				panic(r)
			}
			k.ExitLWP(keeper)
		}()
		k.Start(keeper)
		for {
			k.Park(keeper) // until the process dies
		}
	}()
	return h
}

func (h *harness) run(body func(l *sim.LWP)) <-chan struct{} {
	l, err := h.k.NewLWP(h.p, sim.ClassTS, 30)
	if err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil && !sim.IsUnwind(r) {
				panic(r)
			}
			h.k.ExitLWP(l)
		}()
		h.k.Start(l)
		body(l)
	}()
	return done
}

func (h *harness) wait(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
	}
}

func TestCreateWriteReadFile(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, err := h.pf.Open(l, "/tmp/hello", OCreate|ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := h.pf.Write(l, fd, []byte("hello world")); err != nil || n != 11 {
			t.Errorf("write = %d, %v", n, err)
			return
		}
		if _, err := h.pf.Lseek(fd, 0, SeekSet); err != nil {
			t.Error(err)
			return
		}
		b := make([]byte, 32)
		n, err := h.pf.Read(l, fd, b)
		if err != nil || string(b[:n]) != "hello world" {
			t.Errorf("read = %q, %v", b[:n], err)
		}
		if err := h.pf.Close(fd); err != nil {
			t.Error(err)
		}
	})
	h.wait(t, done, "io")
}

func TestFilePersistsAfterProcessExit(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/persistent", OCreate|ORdWr)
		h.pf.Write(l, fd, []byte("outlives me"))
		h.pf.Close(fd)
	})
	h.wait(t, done, "writer")
	// The creating process is gone; the file remains (the paper's
	// requirement for sync variables in files).
	n, err := h.fs.Lookup("/", "/tmp/persistent")
	if err != nil {
		t.Fatal(err)
	}
	f := n.(*File)
	b := make([]byte, 11)
	f.ReadObject(b, 0)
	if string(b) != "outlives me" {
		t.Fatalf("file content = %q", b)
	}
}

func TestOpenMissingFails(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		if _, err := h.pf.Open(l, "/tmp/nope", ORdOnly); !errors.Is(err, ErrNoEnt) {
			t.Errorf("err = %v, want ErrNoEnt", err)
		}
	})
	h.wait(t, done, "open")
}

func TestOExclFailsOnExisting(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, err := h.pf.Open(l, "/tmp/x", OCreate|ORdWr)
		if err != nil {
			t.Error(err)
			return
		}
		h.pf.Close(fd)
		if _, err := h.pf.Open(l, "/tmp/x", OCreate|OExcl|ORdWr); !errors.Is(err, ErrExist) {
			t.Errorf("err = %v, want ErrExist", err)
		}
	})
	h.wait(t, done, "open")
}

func TestDupSharesOffset(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/f", OCreate|ORdWr)
		h.pf.Write(l, fd, []byte("abcdef"))
		h.pf.Lseek(fd, 0, SeekSet)
		dup, err := h.pf.Dup(fd)
		if err != nil {
			t.Error(err)
			return
		}
		b := make([]byte, 3)
		h.pf.Read(l, fd, b) // advances the shared offset to 3
		n, _ := h.pf.Read(l, dup, b)
		if string(b[:n]) != "def" {
			t.Errorf("dup read %q, want def (shared offset)", b[:n])
		}
	})
	h.wait(t, done, "dup")
}

func TestSeekEndAndTrunc(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/f", OCreate|ORdWr)
		h.pf.Write(l, fd, []byte("0123456789"))
		off, err := h.pf.Lseek(fd, -4, SeekEnd)
		if err != nil || off != 6 {
			t.Errorf("seek end = %d, %v", off, err)
		}
		fd2, _ := h.pf.Open(l, "/tmp/f", OTrunc|ORdWr)
		var b [4]byte
		if _, err := h.pf.Read(l, fd2, b[:]); err != io.EOF {
			t.Errorf("read after trunc err = %v, want EOF", err)
		}
	})
	h.wait(t, done, "seek")
}

func TestMkdirReadDirUnlink(t *testing.T) {
	h := newHarness(1)
	if err := h.fs.Mkdir("/", "/data"); err != nil {
		t.Fatal(err)
	}
	if err := h.fs.Mkdir("/", "/data"); !errors.Is(err, ErrExist) {
		t.Fatalf("second mkdir err = %v", err)
	}
	done := h.run(func(l *sim.LWP) {
		for _, name := range []string{"/data/a", "/data/b"} {
			fd, err := h.pf.Open(l, name, OCreate|OWrOnly)
			if err != nil {
				t.Error(err)
				return
			}
			h.pf.Close(fd)
		}
	})
	h.wait(t, done, "creator")
	names, err := h.fs.ReadDir("/", "/data")
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	if err := h.fs.Unlink("/", "/data/a"); err != nil {
		t.Fatal(err)
	}
	if err := h.fs.Rmdir("/", "/data"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	h.fs.Unlink("/", "/data/b")
	if err := h.fs.Rmdir("/", "/data"); err != nil {
		t.Fatal(err)
	}
}

func TestRelativePathsUseCwd(t *testing.T) {
	h := newHarness(1)
	h.fs.Mkdir("/", "/home")
	h.p.Chdir("/home")
	done := h.run(func(l *sim.LWP) {
		fd, err := h.pf.Open(l, "notes.txt", OCreate|OWrOnly)
		if err != nil {
			t.Error(err)
			return
		}
		h.pf.Close(fd)
	})
	h.wait(t, done, "creator")
	if _, err := h.fs.Lookup("/", "/home/notes.txt"); err != nil {
		t.Fatalf("file not created relative to cwd: %v", err)
	}
}

func TestPipeTransfersData(t *testing.T) {
	h := newHarness(2)
	var rfd, wfd int
	setup := h.run(func(l *sim.LWP) {
		var err error
		rfd, wfd, err = h.pf.Pipe(l)
		if err != nil {
			t.Error(err)
		}
	})
	h.wait(t, setup, "pipe setup")

	got := make(chan string, 1)
	reader := h.run(func(l *sim.LWP) {
		b := make([]byte, 64)
		n, err := h.pf.Read(l, rfd, b)
		if err != nil {
			t.Error(err)
			return
		}
		got <- string(b[:n])
	})
	writer := h.run(func(l *sim.LWP) {
		time.Sleep(time.Millisecond) // let the reader block first
		if _, err := h.pf.Write(l, wfd, []byte("through the pipe")); err != nil {
			t.Error(err)
		}
	})
	h.wait(t, reader, "reader")
	h.wait(t, writer, "writer")
	if s := <-got; s != "through the pipe" {
		t.Fatalf("pipe delivered %q", s)
	}
}

func TestPipeEOFWhenWritersClose(t *testing.T) {
	h := newHarness(2)
	var rfd, wfd int
	setup := h.run(func(l *sim.LWP) {
		rfd, wfd, _ = h.pf.Pipe(l)
	})
	h.wait(t, setup, "setup")
	readErr := make(chan error, 1)
	reader := h.run(func(l *sim.LWP) {
		b := make([]byte, 8)
		_, err := h.pf.Read(l, rfd, b)
		readErr <- err
	})
	closer := h.run(func(l *sim.LWP) {
		time.Sleep(time.Millisecond)
		h.pf.Close(wfd)
	})
	h.wait(t, reader, "reader")
	h.wait(t, closer, "closer")
	if err := <-readErr; err != io.EOF {
		t.Fatalf("read err = %v, want EOF", err)
	}
}

func TestPipeEPIPEAndSIGPIPE(t *testing.T) {
	h := newHarness(1)
	h.k.SetAction(h.p, sim.SIGPIPE, sim.SigIgn, nil, 0)
	var werr error
	done := h.run(func(l *sim.LWP) {
		rfd, wfd, _ := h.pf.Pipe(l)
		h.pf.Close(rfd)
		_, werr = h.pf.Write(l, wfd, []byte("x"))
	})
	h.wait(t, done, "writer")
	if !errors.Is(werr, ErrPipe) {
		t.Fatalf("write err = %v, want ErrPipe", werr)
	}
}

func TestPipeWriteBlocksWhenFull(t *testing.T) {
	h := newHarness(2)
	var rfd, wfd int
	setup := h.run(func(l *sim.LWP) {
		rfd, wfd, _ = h.pf.Pipe(l)
	})
	h.wait(t, setup, "setup")

	wrote := make(chan int, 1)
	writer := h.run(func(l *sim.LWP) {
		big := make([]byte, pipeCap+100)
		n, err := h.pf.Write(l, wfd, big)
		if err != nil {
			t.Error(err)
		}
		wrote <- n
	})
	// The writer must block with exactly pipeCap bytes queued.
	time.Sleep(5 * time.Millisecond)
	select {
	case <-writer:
		t.Fatal("oversized write did not block")
	default:
	}
	drainer := h.run(func(l *sim.LWP) {
		b := make([]byte, pipeCap+100)
		total := 0
		for total < pipeCap+100 {
			n, err := h.pf.Read(l, rfd, b)
			if err != nil {
				t.Error(err)
				return
			}
			total += n
		}
	})
	h.wait(t, writer, "writer")
	h.wait(t, drainer, "drainer")
	if n := <-wrote; n != pipeCap+100 {
		t.Fatalf("wrote %d, want %d", n, pipeCap+100)
	}
}

func TestPollReturnsReadyPipe(t *testing.T) {
	h := newHarness(2)
	var rfd, wfd int
	setup := h.run(func(l *sim.LWP) {
		rfd, wfd, _ = h.pf.Pipe(l)
		h.pf.Write(l, wfd, []byte("ready"))
	})
	h.wait(t, setup, "setup")
	done := h.run(func(l *sim.LWP) {
		fds := []PollFD{{FD: rfd, Events: PollIn}}
		n, err := h.pf.Poll(l, fds, 0)
		if err != nil || n != 1 || fds[0].Revents&PollIn == 0 {
			t.Errorf("poll = %d, %v, revents %v", n, err, fds[0].Revents)
		}
	})
	h.wait(t, done, "poller")
}

func TestPollBlocksUntilData(t *testing.T) {
	h := newHarness(2)
	var rfd, wfd int
	setup := h.run(func(l *sim.LWP) {
		rfd, wfd, _ = h.pf.Pipe(l)
	})
	h.wait(t, setup, "setup")
	polled := make(chan int, 1)
	poller := h.run(func(l *sim.LWP) {
		fds := []PollFD{{FD: rfd, Events: PollIn}}
		n, err := h.pf.Poll(l, fds, 0)
		if err != nil {
			t.Error(err)
		}
		polled <- n
	})
	writer := h.run(func(l *sim.LWP) {
		time.Sleep(2 * time.Millisecond)
		h.pf.Write(l, wfd, []byte("x"))
	})
	h.wait(t, poller, "poller")
	h.wait(t, writer, "writer")
	if n := <-polled; n != 1 {
		t.Fatalf("poll returned %d", n)
	}
}

func TestPollTimeout(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		rfd, _, _ := h.pf.Pipe(l)
		fds := []PollFD{{FD: rfd, Events: PollIn}}
		n, err := h.pf.Poll(l, fds, 2*time.Millisecond)
		if err != nil || n != 0 {
			t.Errorf("poll = %d, %v; want 0 on timeout", n, err)
		}
	})
	h.wait(t, done, "poller")
}

// TestPollDeadlineSeesEveryPipe: a Poll with a deadline over two pipes
// returns as soon as the second one is written. It used to sleep on the
// first pipe's queue for its whole timeout and return 0 without looking
// again (300 ms and 0, three runs in three).
func TestPollDeadlineSeesEveryPipe(t *testing.T) {
	const T = 300 * time.Millisecond
	h := newHarness(2)
	var r1, r2, w2 int
	setup := h.run(func(l *sim.LWP) {
		r1, _, _ = h.pf.Pipe(l)
		r2, w2, _ = h.pf.Pipe(l)
	})
	h.wait(t, setup, "setup")
	var n int
	var err error
	var elapsed time.Duration
	poller := h.run(func(l *sim.LWP) {
		fds := []PollFD{{FD: r1, Events: PollIn}, {FD: r2, Events: PollIn}}
		start := h.k.Clock().Now()
		n, err = h.pf.Poll(l, fds, T)
		elapsed = h.k.Clock().Now() - start
		if fds[1].Revents&PollIn == 0 {
			t.Errorf("second pipe's revents = %v, want PollIn", fds[1].Revents)
		}
	})
	writer := h.run(func(l *sim.LWP) {
		h.k.SleepFor(l, 5*time.Millisecond)
		h.pf.Write(l, w2, []byte("x"))
	})
	h.wait(t, poller, "poller")
	h.wait(t, writer, "writer")
	if n != 1 || err != nil {
		t.Errorf("Poll(%v) = %d, %v; want 1, nil", T, n, err)
	}
	if elapsed >= T/2 {
		t.Errorf("Poll(%v) returned after %v, want well before its deadline", T, elapsed)
	}
}

func TestForkIntoSharesOpenFiles(t *testing.T) {
	// Two CPUs: the parent's animator waits (in Go, still on its
	// CPU) for the child's LWP, which needs the second CPU.
	h := newHarness(2)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/f", OCreate|ORdWr)
		h.pf.Write(l, fd, []byte("abcdef"))
		h.pf.Lseek(fd, 0, SeekSet)

		child, cl, _, err := h.k.Fork(l, false)
		if err != nil {
			t.Error(err)
			return
		}
		cf := h.pf.ForkInto(child)
		// Child reads 3 bytes through the shared entry...
		b := make([]byte, 3)
		go func() {
			defer func() { recover(); h.k.ExitLWP(cl) }()
			h.k.Start(cl)
			cf.Read(cl, fd, b)
		}()
		<-cl.Exited()
		// ...so the parent's next read continues at offset 3.
		b2 := make([]byte, 3)
		n, _ := h.pf.Read(l, fd, b2)
		if string(b2[:n]) != "def" {
			t.Errorf("parent read %q after child read, want def", b2[:n])
		}
	})
	h.wait(t, done, "fork io")
}

func TestSynthFileSnapshotsAtOpen(t *testing.T) {
	h := newHarness(1)
	val := "v1"
	h.fs.Attach("/", "/tmp/status", &SynthFile{Gen: func() []byte { return []byte(val) }})
	done := h.run(func(l *sim.LWP) {
		fd, err := h.pf.Open(l, "/tmp/status", ORdOnly)
		if err != nil {
			t.Error(err)
			return
		}
		val = "v2" // generated content was snapshotted at open
		b := make([]byte, 8)
		n, _ := h.pf.Read(l, fd, b)
		if string(b[:n]) != "v1" {
			t.Errorf("synth read %q, want v1", b[:n])
		}
	})
	h.wait(t, done, "synth")
}

func TestCloseAllAndBadFD(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/f", OCreate|ORdWr)
		h.pf.CloseAll()
		if _, err := h.pf.Read(l, fd, make([]byte, 1)); !errors.Is(err, ErrBadF) {
			t.Errorf("read after CloseAll err = %v", err)
		}
		if err := h.pf.Close(99); !errors.Is(err, ErrBadF) {
			t.Errorf("close(99) err = %v", err)
		}
	})
	h.wait(t, done, "worker")
}

func TestWriteOnReadOnlyFD(t *testing.T) {
	h := newHarness(1)
	done := h.run(func(l *sim.LWP) {
		fd, _ := h.pf.Open(l, "/tmp/f", OCreate|OWrOnly)
		h.pf.Close(fd)
		fd, _ = h.pf.Open(l, "/tmp/f", ORdOnly)
		if _, err := h.pf.Write(l, fd, []byte("x")); !errors.Is(err, ErrBadF) {
			t.Errorf("write on rdonly err = %v", err)
		}
	})
	h.wait(t, done, "worker")
}
