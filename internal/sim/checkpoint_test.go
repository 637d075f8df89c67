package sim

import (
	"testing"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
)

// lwpDriver animates one LWP and runs the functions it is handed on
// the LWP's own goroutine, one at a time, so a test can interleave the
// LWP's kernel entries with its own posts and clock steps.
type lwpDriver struct {
	l    *LWP
	ops  chan func()
	done <-chan struct{} // closed when the animator has exited the LWP
}

func drive(k *Kernel, p *Process) *lwpDriver {
	d := &lwpDriver{ops: make(chan func())}
	d.l, d.done = animate(k, p, func(*LWP) {
		for f := range d.ops {
			f()
		}
	})
	return d
}

// run hands f to the LWP and returns a channel closed when f returns
// or unwinds.
func (d *lwpDriver) run(f func()) <-chan struct{} {
	ack := make(chan struct{})
	d.ops <- func() {
		defer close(ack)
		f()
	}
	return ack
}

// do runs f on the LWP and waits for it.
func (d *lwpDriver) do(t *testing.T, f func()) {
	t.Helper()
	waitClosed(t, d.run(f), "the LWP's step")
}

// stop lets the animator exit the LWP, unless it already unwound.
func (d *lwpDriver) stop(t *testing.T) {
	t.Helper()
	select {
	case <-d.done:
	default:
		close(d.ops)
		waitClosed(t, d.done, "animator")
	}
}

// TestCheckpointNoKernelLock: a Kernel.Checkpoint with nothing posted
// takes k.mu 0 times (1 before) and reads the clock once, shown by
// making the call while this goroutine holds k.mu. Run with a timeout:
// the version that locked deadlocks here.
func TestCheckpointNoKernelLock(t *testing.T) {
	clk := &countingClock{Clock: ktime.NewReal()}
	k := NewKernel(Config{NCPU: 1, Clock: clk, LWPCreateCost: -1, KernelSwitchCost: -1})
	a := drive(k, k.NewProcess("count", nil))
	a.do(t, func() { k.Checkpoint(a.l) }) // a new LWP's first checkpoint locks
	k.mu.Lock()
	before := clk.reads.Load()
	ack := a.run(func() { k.Checkpoint(a.l) })
	select {
	case <-ack:
		if got := clk.reads.Load() - before; got != 1 {
			t.Errorf("Checkpoint with nothing posted: %d clock reads, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Error("Checkpoint with nothing posted waits for k.mu")
	}
	k.mu.Unlock()
	<-ack
	a.stop(t)
}

// TestCheckpointPostingTable: for everything a checkpoint acts on, a
// Checkpoint made right after the post does what a checkpoint that
// always took k.mu did — reports the signal, unwinds, stops, preempts,
// charges — though the LWP's previous checkpoints took the lock-free
// path. Each row fails if its poster stops marking the LWP slow.
func TestCheckpointPostingTable(t *testing.T) {
	type env struct {
		k   *Kernel
		p   *Process
		a   *lwpDriver
		clk *ktime.Manual
	}
	// ckpt runs a Checkpoint on the LWP and returns its answer.
	ckpt := func(t *testing.T, e env) (pending bool) {
		e.a.do(t, func() { pending = e.k.Checkpoint(e.a.l) })
		return pending
	}
	// queued starts an LWP that can only wait for a CPU, and reports
	// when it has run.
	queued := func(t *testing.T, e env, class Class, prio int) <-chan struct{} {
		l, err := e.k.NewLWP(e.p, class, prio)
		if err != nil {
			t.Fatal(err)
		}
		ran := make(chan struct{})
		go func() {
			defer func() { recover(); e.k.ExitLWP(l) }()
			e.k.Start(l)
			close(ran)
		}()
		for l.State() != LWPRunnable {
			time.Sleep(50 * time.Microsecond)
		}
		return ran
	}
	ranBefore := func(t *testing.T, ran <-chan struct{}) {
		select {
		case <-ran:
		default:
			t.Error("the Checkpoint returned before the queued LWP ran")
		}
	}
	curCPU := func(e env) int { return int(e.a.l.curCPU.Load()) }
	caught := func(e env, sigs ...Signal) {
		for _, s := range sigs {
			e.k.SetAction(e.p, s, SigCatch, func(Signal) {}, 0)
		}
	}
	rows := []struct {
		name string
		cfg  Config
		row  func(t *testing.T, e env)
	}{
		{"process signal", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			e.k.PostSignal(e.p, SIGUSR1)
			// Untaken, the signal stays pending through any number of
			// checkpoints.
			if !ckpt(t, e) || !ckpt(t, e) {
				t.Error("Checkpoint after PostSignal: no signal pending")
			}
		}},
		{"LWP-directed signal", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			e.k.PostSignalLWP(e.a.l, SIGUSR1)
			if !ckpt(t, e) {
				t.Error("Checkpoint after PostSignalLWP: no signal pending")
			}
		}},
		{"process signal pended while parked", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			var pending bool
			ack := e.a.run(func() { e.k.Park(e.a.l); pending = e.k.Checkpoint(e.a.l) })
			for e.a.l.State() != LWPParked {
				time.Sleep(50 * time.Microsecond)
			}
			e.k.PostSignal(e.p, SIGUSR1) // no candidate LWP: pends on the process
			e.k.Unpark(e.a.l)
			waitClosed(t, ack, "park")
			if !pending {
				t.Error("Checkpoint after unpark: process-pending signal not reported")
			}
		}},
		{"process signal to an interruptible sleeper", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			var pending bool
			ack := e.a.run(func() {
				e.k.SleepIf(e.a.l, NewWaitQ("nobody"), nil, SleepOpts{Interruptible: true})
				pending = e.k.Checkpoint(e.a.l)
			})
			for e.a.l.State() != LWPSleeping {
				time.Sleep(50 * time.Microsecond)
			}
			e.k.PostSignal(e.p, SIGUSR1)
			waitClosed(t, ack, "interrupted sleep")
			if !pending {
				t.Error("Checkpoint after EINTR: no signal pending")
			}
		}},
		{"process signal to a runnable LWP", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			b := drive(e.k, e.p) // queued behind a; masks the signal
			e.k.SetLWPMask(b.l, SigBlock, MakeSigset(SIGUSR1))
			for b.l.State() != LWPRunnable {
				time.Sleep(50 * time.Microsecond)
			}
			ack := e.a.run(func() { e.k.Yield(e.a.l) })
			for e.a.l.State() != LWPRunnable {
				time.Sleep(50 * time.Microsecond)
			}
			e.k.PostSignal(e.p, SIGUSR1)
			b.stop(t)
			waitClosed(t, ack, "yield")
			if !ckpt(t, e) {
				t.Error("Checkpoint after being dispatched: no signal pending")
			}
		}},
		{"unmasking a process-pending signal", Config{}, func(t *testing.T, e env) {
			caught(e, SIGUSR1)
			e.a.do(t, func() { e.k.SetLWPMask(e.a.l, SigBlock, MakeSigset(SIGUSR1)) })
			ckpt(t, e)
			e.k.PostSignal(e.p, SIGUSR1)
			if ckpt(t, e) {
				t.Error("masked signal reported pending")
			}
			ckpt(t, e)
			e.a.do(t, func() { e.k.SetLWPMask(e.a.l, SigUnblock, MakeSigset(SIGUSR1)) })
			if !ckpt(t, e) {
				t.Error("Checkpoint after unmasking: no signal pending")
			}
		}},
		{"SIGSTOP", Config{}, func(t *testing.T, e env) {
			e.k.PostSignal(e.p, SIGSTOP)
			ack := e.a.run(func() { e.k.Checkpoint(e.a.l) })
			for e.a.l.State() != LWPStopped {
				select {
				case <-ack:
					t.Fatal("Checkpoint after SIGSTOP returned without stopping")
				case <-time.After(50 * time.Microsecond):
				}
			}
			e.k.PostSignal(e.p, SIGCONT)
			waitClosed(t, ack, "continued checkpoint")
		}},
		{"kill", Config{}, func(t *testing.T, e env) {
			e.k.PostSignal(e.p, SIGKILL)
			returned := false
			e.a.run(func() { e.k.Checkpoint(e.a.l); returned = true })
			waitClosed(t, e.a.done, "unwound LWP")
			if returned {
				t.Error("Checkpoint after SIGKILL returned instead of unwinding")
			}
		}},
		{"exec", Config{NCPU: 2}, func(t *testing.T, e env) {
			b := drive(e.k, e.p)
			execd := b.run(func() {
				nl, err := e.k.Exec(b.l, "new")
				if err != nil {
					t.Error(err)
					return
				}
				go func() {
					defer func() { recover(); e.k.ExitLWP(nl) }()
					e.k.Start(nl)
				}()
			})
			for {
				e.k.mu.Lock()
				execing := e.p.execing
				e.k.mu.Unlock()
				if execing {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			returned := false
			e.a.run(func() { e.k.Checkpoint(e.a.l); returned = true })
			waitClosed(t, e.a.done, "unwound LWP")
			waitClosed(t, execd, "exec")
			b.stop(t)
			if returned {
				t.Error("Checkpoint during exec returned instead of unwinding")
			}
		}},
		{"higher-priority LWP queued", Config{}, func(t *testing.T, e env) {
			ran := queued(t, e, ClassRT, 10)
			ckpt(t, e)
			ranBefore(t, ran)
		}},
		{"BindCPU", Config{NCPU: 2}, func(t *testing.T, e env) {
			to := 1 - curCPU(e)
			if err := e.k.BindCPU(e.a.l, to); err != nil {
				t.Fatal(err)
			}
			ckpt(t, e)
			if got := curCPU(e); got != to {
				t.Errorf("after BindCPU(%d) and a Checkpoint the LWP is on CPU %d", to, got)
			}
		}},
		{"pset assign", Config{NCPU: 2}, func(t *testing.T, e env) {
			from := curCPU(e)
			if err := e.k.PsetAssign(e.k.PsetCreate(), from); err != nil {
				t.Fatal(err)
			}
			ckpt(t, e)
			if got := curCPU(e); got == from {
				t.Errorf("after its CPU left the default pset the LWP is still on CPU %d", got)
			}
		}},
		{"pset bind", Config{NCPU: 2}, func(t *testing.T, e env) {
			to := 1 - curCPU(e)
			ps := e.k.PsetCreate()
			if err := e.k.PsetAssign(ps, to); err != nil {
				t.Fatal(err)
			}
			if err := e.k.PsetBind(e.a.l, ps); err != nil {
				t.Fatal(err)
			}
			ckpt(t, e)
			if got := curCPU(e); got != to {
				t.Errorf("after PsetBind and a Checkpoint the LWP is on CPU %d, want %d", got, to)
			}
		}},
		{"slice expired with an LWP queued", Config{TimeSlice: 10 * time.Millisecond}, func(t *testing.T, e env) {
			ran := queued(t, e, ClassTS, defaultTSPrio) // equal priority: no preemption flag
			e.clk.Advance(20 * time.Millisecond)
			ckpt(t, e)
			ranBefore(t, ran)
		}},
		// The charging posters are checked two checkpoints after the
		// post: while a timer, buffer or limit is set, every checkpoint
		// charges.
		{"Setitimer virtual", Config{}, func(t *testing.T, e env) {
			caught(e, SIGVTALRM)
			e.a.do(t, func() { e.k.Setitimer(e.a.l, ITimerVirtual, 15*time.Millisecond, 0) })
			if pastTwoSteps(t, e.clk, func() bool { return ckpt(t, e) }) {
				t.Error("Checkpoint past the virtual timer: no SIGVTALRM")
			}
		}},
		{"Setitimer prof", Config{}, func(t *testing.T, e env) {
			caught(e, SIGPROF)
			e.a.do(t, func() { e.k.Setitimer(e.a.l, ITimerProf, 15*time.Millisecond, 0) })
			if pastTwoSteps(t, e.clk, func() bool { return ckpt(t, e) }) {
				t.Error("Checkpoint past the profiling timer: no SIGPROF")
			}
		}},
		{"SetProfiling", Config{}, func(t *testing.T, e env) {
			buf := NewProfBuffer()
			e.k.SetProfiling(e.a.l, buf)
			ckpt(t, e)
			e.clk.Advance(10 * time.Millisecond)
			ckpt(t, e)
			if got := buf.Total(""); got != 10*time.Millisecond {
				t.Errorf("profiling buffer after the Checkpoint = %v, want 10ms", got)
			}
		}},
		{"SetCPULimit", Config{}, func(t *testing.T, e env) {
			caught(e, SIGXCPU)
			e.p.SetCPULimit(Rlimit{Soft: 15 * time.Millisecond, Hard: RlimitInfinity})
			if pastTwoSteps(t, e.clk, func() bool { return ckpt(t, e) }) {
				t.Error("Checkpoint past the CPU limit: no SIGXCPU")
			}
		}},
		{"chaos enabled", Config{Chaos: chaos.New(chaos.Config{Seed: 1, Preempt: 1000})}, func(t *testing.T, e env) {
			c := e.k.cpus[0]
			e.k.mu.Lock()
			before := c.dispatches
			e.k.mu.Unlock()
			ckpt(t, e)
			e.k.mu.Lock()
			after := c.dispatches
			e.k.mu.Unlock()
			if after == before {
				t.Error("Checkpoint under chaos preemption did not re-dispatch")
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			clk := ktime.NewManual()
			cfg := r.cfg
			cfg.Clock, cfg.LWPCreateCost, cfg.KernelSwitchCost = clk, -1, -1
			k := NewKernel(cfg)
			p := k.NewProcess("post", nil)
			e := env{k: k, p: p, a: drive(k, p), clk: clk}
			ckpt(t, e) // the first locks and finds nothing posted;
			ckpt(t, e) // so this one is on the lock-free path
			r.row(t, e)
			e.a.stop(t)
		})
	}
}

// pastTwoSteps checkpoints at the post, 10ms later and 20ms later, and
// reports whether the signal due between the last two was missed.
func pastTwoSteps(t *testing.T, clk *ktime.Manual, ckpt func() bool) (missed bool) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if ckpt() {
			t.Errorf("signal pending %dms after the post, before it was due", 10*i)
		}
		clk.Advance(10 * time.Millisecond)
	}
	return !ckpt()
}

// TestCheckpointAccountingEquivalence pins, on a Manual clock, every
// number the checkpoints' charges feed: user and system time through
// Usage and Getrusage, TS usage and the priority it yields, a virtual
// timer armed and profiling enabled mid-run, across decay boundaries,
// reclasses, a system call, and a preemption decided by comparing
// priorities. The same script passes unchanged against a kernel whose
// every checkpoint charged under k.mu: deferring the charge moves no
// number.
func TestCheckpointAccountingEquivalence(t *testing.T) {
	const ms = time.Millisecond
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk, LWPCreateCost: -1, KernelSwitchCost: -1})
	p := k.NewProcess("acct", nil)
	k.SetAction(p, SIGVTALRM, SigCatch, func(Signal) {}, 0)
	a := drive(k, p)
	l := a.l
	ckpt := func() { a.do(t, func() { k.Checkpoint(l) }) }
	step := func(d time.Duration) { clk.Advance(d); ckpt() }
	sleep := func(d time.Duration) {
		slept := a.run(func() { k.SleepFor(l, d) })
		for clk.PendingTimers() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		clk.Advance(d)
		waitClosed(t, slept, "sleep")
	}
	check := func(at string, user, sys, usage time.Duration, prio int) {
		t.Helper()
		r := p.Getrusage() // the first reader after the checkpoints
		u, s := l.Usage()
		k.mu.Lock()
		gotUsage, gotPrio := l.cpuUsage, l.globalPrio()
		k.mu.Unlock()
		if r.UserTime != user || r.SysTime != sys || u != user || s != sys || gotUsage != usage || gotPrio != prio {
			t.Errorf("%s: Getrusage (%v, %v), Usage (%v, %v), cpuUsage %v, globalPrio %d; want (%v, %v) twice, %v, %d",
				at, r.UserTime, r.SysTime, u, s, gotUsage, gotPrio, user, sys, usage, prio)
		}
	}

	ckpt()
	step(2 * ms)
	if u, _ := l.Usage(); u != 2*ms {
		t.Errorf("Usage after a checkpoint = %v, want 2ms", u)
	}
	step(3 * ms)
	check("checkpoints", 5*ms, 0, 5*ms, 29)

	step(1 * ms) // charged before profiling
	buf := NewProfBuffer()
	k.SetProfiling(l, buf)
	step(1 * ms)
	if got := buf.Total(""); got != 1*ms {
		t.Errorf("profiling buffer = %v, want 1ms", got)
	}
	k.SetProfiling(l, nil)
	ckpt()

	step(4 * ms)
	a.do(t, func() { k.SyscallEnter(l) })
	clk.Advance(2 * ms)
	a.do(t, func() { k.SyscallExit(l) })
	check("a system call", 11*ms, 2*ms, 13*ms, 28)

	step(3 * ms) // charged before the timer exists
	a.do(t, func() { k.Setitimer(l, ITimerVirtual, 10*ms, 0) })
	step(4 * ms)
	check("a virtual timer armed mid-run", 18*ms, 2*ms, 20*ms, 26)
	k.mu.Lock()
	if rem := l.vtimer.remaining; rem != 6*ms {
		t.Errorf("virtual timer remaining = %v, want 6ms", rem)
	}
	k.mu.Unlock()
	a.do(t, func() { k.Setitimer(l, ITimerVirtual, 0, 0) })
	ckpt()

	// 25ms of usage is priority 25, below a queued 26: only a comparison
	// that sees the last checkpoint's charge preempts.
	step(5 * ms)
	ran := make(chan struct{})
	b, err := k.NewLWP(p, ClassTS, 26)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer func() { recover(); k.ExitLWP(b) }()
		k.Start(b)
		close(ran)
	}()
	for b.State() != LWPRunnable {
		time.Sleep(50 * time.Microsecond)
	}
	k.mu.Lock()
	flagged := l.preempt
	k.mu.Unlock()
	if !flagged {
		t.Error("a queued LWP at priority 26 did not flag the running LWP at 25")
	}
	ckpt()
	select {
	case <-ran:
	default:
		t.Error("the flagged LWP's Checkpoint returned before the queued LWP ran")
	}
	check("a priority comparison", 23*ms, 2*ms, 25*ms, 25)

	// Off CPU to just before the first decay (at 1s), then a checkpoint
	// before it and one after.
	sleep(960 * ms)
	step(10 * ms)
	step(16 * ms)
	check("a decay boundary", 49*ms, 2*ms, 25500*time.Microsecond, 25)

	step(5 * ms) // charged as TS
	if err := k.Priocntl(l, ClassRT, 10); err != nil {
		t.Fatal(err)
	}
	step(5 * ms) // charged as RT: no usage
	check("a reclass to RT", 59*ms, 2*ms, 30500*time.Microsecond, rtMinGlobal+10)

	// Past the second decay (at 2s) as RT, which does not decay, then
	// back to TS: its first checkpoint decays, its second does not.
	sleep(990 * ms)
	if err := k.Priocntl(l, ClassTS, defaultTSPrio); err != nil {
		t.Fatal(err)
	}
	step(5 * ms)
	step(5 * ms)
	check("a reclass back to TS past a decay", 69*ms, 2*ms, 22750*time.Microsecond, 26)
	a.stop(t)
}
