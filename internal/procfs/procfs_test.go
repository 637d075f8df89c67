package procfs

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
)

func readAll(t *testing.T, k *sim.Kernel, pf *vfs.ProcFiles, l *sim.LWP, path string) string {
	t.Helper()
	fd, err := pf.Open(l, path, vfs.ORdOnly)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer pf.Close(fd)
	var out []byte
	b := make([]byte, 256)
	for {
		n, err := pf.Read(l, fd, b)
		out = append(out, b[:n]...)
		if err == io.EOF {
			return string(out)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestProcStatusAndThreads(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 2})
	fs := vfs.NewFS(k)
	pfs, err := Mount(k, fs)
	if err != nil {
		t.Fatal(err)
	}

	// A multi-threaded target process.
	target := k.NewProcess("victim", nil)
	rt := core.NewRuntime(k, target, core.Config{})
	pfs.RegisterRuntime(rt)
	var released atomic.Bool
	if _, err := rt.Start(func(self *core.Thread, _ any) {
		for i := 0; i < 3; i++ {
			rt.Create(func(c *core.Thread, _ any) {
				c.Park() // parked worker, visible in /proc
			}, nil, core.CreateOpts{Flags: core.ThreadDaemon})
		}
		for !released.Load() {
			self.Yield() // let the workers run and park
			time.Sleep(100 * time.Microsecond)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Let the workers park. Counting runnables is racy here — the
	// check can sample before the workers are even created — so wait
	// until three threads are observably asleep.
	for {
		parked := 0
		for _, th := range rt.Threads() {
			if th.State() == core.ThreadSleeping {
				parked++
			}
		}
		if parked >= 3 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := pfs.Refresh(); err != nil {
		t.Fatal(err)
	}

	// An observer process (the debugger) reads /proc.
	obs := k.NewProcess("mdb", nil)
	opf := vfs.NewProcFiles(fs, obs)
	l, _ := k.NewLWP(obs, sim.ClassTS, 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover(); k.ExitLWP(l) }()
		k.Start(l)
		pid := target.PID()
		status := readAll(t, k, opf, l, "/proc/"+itoa(int(pid))+"/status")
		if !strings.Contains(status, "comm:\tvictim") {
			t.Errorf("status missing comm:\n%s", status)
		}
		if !strings.Contains(status, "state:\trunning") {
			t.Errorf("status missing state:\n%s", status)
		}
		lwps := readAll(t, k, opf, l, "/proc/"+itoa(int(pid))+"/lwps")
		if !strings.Contains(lwps, "LWPID") {
			t.Errorf("lwps header missing:\n%s", lwps)
		}
		threads := readAll(t, k, opf, l, "/proc/"+itoa(int(pid))+"/threads")
		if strings.Count(threads, "sleeping") < 3 {
			t.Errorf("expected 3 parked threads:\n%s", threads)
		}
		if !strings.Contains(threads, "pool-lwps:") {
			t.Errorf("threads footer missing:\n%s", threads)
		}
		if !strings.Contains(threads, "runq-depth:") || !strings.Contains(threads, "occupancy:") || !strings.Contains(threads, "switches: direct ") {
			t.Errorf("threads footer missing run-queue stats:\n%s", threads)
		}
		if !strings.Contains(threads, "runq: depth ") || strings.Contains(threads, "runq-shard") {
			t.Errorf("threads footer should carry one run-queue traffic line:\n%s", threads)
		}
		psinfo := readAll(t, k, opf, l, "/proc/"+itoa(int(pid))+"/psinfo")
		if !strings.Contains(psinfo, "PSET") || !strings.Contains(psinfo, "BOUND-CPU") {
			t.Errorf("psinfo missing placement columns:\n%s", psinfo)
		}
		sched := readAll(t, k, opf, l, "/proc/sched")
		if !strings.Contains(sched, "STEAL") || !strings.Contains(sched, "balance-moves:") {
			t.Errorf("sched missing dispatcher columns:\n%s", sched)
		}
		if strings.Count(sched, "\n") < 3 { // header + 2 CPUs
			t.Errorf("sched missing per-CPU rows:\n%s", sched)
		}
		usage := readAll(t, k, opf, l, "/proc/"+itoa(int(pid))+"/usage")
		if !strings.Contains(usage, "oncpu:") || !strings.Contains(usage, "total:") {
			t.Errorf("usage missing process totals:\n%s", usage)
		}
		if !strings.Contains(usage, "LWPID") {
			t.Errorf("usage missing per-LWP microstate table:\n%s", usage)
		}
		if !strings.Contains(usage, "TID") || !strings.Contains(usage, "LOCK") {
			t.Errorf("usage missing per-thread microstate table:\n%s", usage)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("observer timed out")
	}
	released.Store(true)
	select {
	case <-rt.Exited():
	case <-time.After(10 * time.Second):
		t.Fatal("target did not exit")
	}
}

// TestPsinfoReflectsBinding checks that psrset/pbind state — an LWP's
// class, processor set, and hard CPU binding — shows up in its
// process's psinfo node and in the machine-wide sched node.
func TestPsinfoReflectsBinding(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 2})
	fs := vfs.NewFS(k)
	pfs, err := Mount(k, fs)
	if err != nil {
		t.Fatal(err)
	}
	target := k.NewProcess("bound", nil)
	bl, err := k.NewLWP(target, sim.ClassRT, 10)
	if err != nil {
		t.Fatal(err)
	}
	ps := k.PsetCreate()
	if err := k.PsetAssign(ps, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.PsetBind(bl, ps); err != nil {
		t.Fatal(err)
	}
	if err := k.BindCPU(bl, 1); err != nil {
		t.Fatal(err)
	}
	if err := pfs.Refresh(); err != nil {
		t.Fatal(err)
	}

	obs := k.NewProcess("mdb", nil)
	opf := vfs.NewProcFiles(fs, obs)
	l, _ := k.NewLWP(obs, sim.ClassTS, 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover(); k.ExitLWP(l) }()
		k.Start(l)
		psinfo := readAll(t, k, opf, l, "/proc/"+itoa(int(target.PID()))+"/psinfo")
		row := ""
		for _, line := range strings.Split(psinfo, "\n") {
			if strings.HasPrefix(line, itoa(int(bl.ID()))+" ") {
				row = line
			}
		}
		if row == "" {
			t.Errorf("psinfo has no row for lwp %d:\n%s", bl.ID(), psinfo)
		}
		for _, want := range []string{"RT", itoa(int(ps)), "1"} {
			if !strings.Contains(row, want) {
				t.Errorf("psinfo row %q missing %q", row, want)
			}
		}
		sched := readAll(t, k, opf, l, "/proc/sched")
		if !strings.Contains(sched, "pset "+itoa(int(ps))+": cpus [1] bound-lwps 1") {
			t.Errorf("sched missing pset membership:\n%s", sched)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("observer timed out")
	}
}

func TestRefreshDropsDeadProcesses(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1})
	fs := vfs.NewFS(k)
	pfs, _ := Mount(k, fs)
	p := k.NewProcess("ephemeral", nil)
	rt := core.NewRuntime(k, p, core.Config{})
	rt.Start(func(*core.Thread, any) {}, nil)
	<-rt.Exited()
	pfs.Refresh()
	names, err := fs.ReadDir("/", "/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == itoa(int(p.PID())) {
			t.Fatalf("dead process still listed: %v", names)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestHealthNode checks the /proc/<pid>/health deadman report: a
// process with a worker blocked far past the watchdog deadline
// renders as stuck with a per-thread line naming what it waits on.
func TestHealthNode(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 2})
	fs := vfs.NewFS(k)
	pfs, err := Mount(k, fs)
	if err != nil {
		t.Fatal(err)
	}
	target := k.NewProcess("wedged", nil)
	rt := core.NewRuntime(k, target, core.Config{WatchdogDeadline: time.Millisecond})
	pfs.RegisterRuntime(rt)
	var released atomic.Bool
	if _, err := rt.Start(func(self *core.Thread, _ any) {
		rt.Create(func(c *core.Thread, _ any) {
			c.Park() // blocked far past the 1ms deadline
		}, nil, core.CreateOpts{Flags: core.ThreadDaemon})
		for !released.Load() {
			self.Yield()
			time.Sleep(100 * time.Microsecond)
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker is observably parked, then let it age past
	// the deadline.
	for {
		parked := false
		for _, th := range rt.Threads() {
			if th.State() == core.ThreadSleeping {
				parked = true
			}
		}
		if parked {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	if err := pfs.Refresh(); err != nil {
		t.Fatal(err)
	}

	obs := k.NewProcess("mdb", nil)
	opf := vfs.NewProcFiles(fs, obs)
	l, _ := k.NewLWP(obs, sim.ClassTS, 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover(); k.ExitLWP(l) }()
		k.Start(l)
		health := readAll(t, k, opf, l, "/proc/"+itoa(int(target.PID()))+"/health")
		if !strings.Contains(health, "deadline:\t1ms") {
			t.Errorf("health missing deadline:\n%s", health)
		}
		if !strings.Contains(health, "status:\tstuck") {
			t.Errorf("health not stuck with a wedged worker:\n%s", health)
		}
		if !strings.Contains(health, "thread ") || !strings.Contains(health, "blocked-on") {
			t.Errorf("health missing per-thread line:\n%s", health)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("observer timed out")
	}
	released.Store(true)
	select {
	case <-rt.Exited():
	case <-time.After(10 * time.Second):
		t.Fatal("target did not exit")
	}
}
