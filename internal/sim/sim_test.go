package sim

import (
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/ktime"
)

// newTestKernel boots a kernel on the real clock with ncpu CPUs.
func newTestKernel(ncpu int) *Kernel {
	return NewKernel(Config{NCPU: ncpu})
}

// animate creates an LWP in p and runs body on a fresh goroutine as
// its animator: Start, body, ExitLWP, with kernel unwinds recovered.
// It returns the LWP and a channel closed when the animator is done.
func animate(k *Kernel, p *Process, body func(l *LWP)) (*LWP, <-chan struct{}) {
	ls, dones := animateAll(k, p, body)
	return ls[0], dones[0]
}

// animateAll animates one LWP per body, creating every LWP before any
// of them starts: a body that ran to completion before its sibling's
// LWP existed would exit the process with it (last LWP gone) and make
// the sibling's NewLWP fail.
func animateAll(k *Kernel, p *Process, bodies ...func(l *LWP)) ([]*LWP, []<-chan struct{}) {
	ls := make([]*LWP, len(bodies))
	for i := range bodies {
		l, err := k.NewLWP(p, ClassTS, defaultTSPrio)
		if err != nil {
			panic(err)
		}
		ls[i] = l
	}
	dones := make([]<-chan struct{}, len(bodies))
	for i, body := range bodies {
		l, body := ls[i], body
		done := make(chan struct{})
		dones[i] = done
		go func() {
			defer close(done)
			defer func() {
				if r := recover(); r != nil && !IsUnwind(r) {
					panic(r)
				}
				k.ExitLWP(l)
			}()
			k.Start(l)
			body(l)
		}()
	}
	return ls, dones
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout waiting for %s", what)
	}
}

func TestSingleLWPRunsAndExits(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("init", nil)
	ran := false
	l, done := animate(k, p, func(l *LWP) { ran = true })
	waitClosed(t, done, "animator")
	if !ran {
		t.Fatal("body did not run")
	}
	if l.State() != LWPZombie {
		t.Fatalf("lwp state = %v, want zombie", l.State())
	}
	waitClosed(t, p.Exited(), "process exit")
	if st := p.State(); st != ProcZombie && st != ProcDead {
		t.Fatalf("proc state = %v, want zombie/dead", st)
	}
}

func TestTwoLWPsShareOneCPU(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	const rounds = 50
	counts := [2]int{}
	mk := func(i int) func(*LWP) {
		return func(l *LWP) {
			for j := 0; j < rounds; j++ {
				counts[i]++
				k.Yield(l)
			}
		}
	}
	_, dones := animateAll(k, p, mk(0), mk(1))
	waitClosed(t, dones[0], "lwp1")
	waitClosed(t, dones[1], "lwp2")
	if counts[0] != rounds || counts[1] != rounds {
		t.Fatalf("counts = %v, want both %d", counts, rounds)
	}
}

func TestAtMostNCPUOnCPU(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	// Track max concurrency via kernel state inspection at yields.
	maxSeen := 0
	check := func() {
		k.mu.Lock()
		n := 0
		for _, c := range k.cpus {
			if c.lwp != nil {
				n++
			}
		}
		if n > maxSeen {
			maxSeen = n
		}
		if n > 2 {
			panic("more LWPs on CPU than CPUs")
		}
		k.mu.Unlock()
	}
	worker := func(l *LWP) {
		for j := 0; j < 30; j++ {
			check()
			k.Yield(l)
		}
	}
	_, dones := animateAll(k, p, worker, worker, worker, worker, worker, worker)
	for _, d := range dones {
		waitClosed(t, d, "worker")
	}
	if maxSeen == 0 {
		t.Fatal("no concurrency observed")
	}
}

func TestSleepWakeup(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("test")
	got := make(chan WakeResult, 1)
	sleeper, d1 := animate(k, p, func(l *LWP) {
		got <- sleepOn(k, l, wq, SleepOpts{})
	})
	// Wait for the sleeper to block.
	for sleeper.State() != LWPSleeping {
		time.Sleep(100 * time.Microsecond)
	}
	if n := wq.Len(k); n != 1 {
		t.Fatalf("waitq len = %d, want 1", n)
	}
	if n := k.Wakeup(wq, 1); n != 1 {
		t.Fatalf("Wakeup woke %d, want 1", n)
	}
	waitClosed(t, d1, "sleeper")
	if res := <-got; res != WakeNormal {
		t.Fatalf("wake result = %v, want normal", res)
	}
}

func TestSleepTimeout(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("test")
	got := make(chan WakeResult, 1)
	_, d := animate(k, p, func(l *LWP) {
		got <- sleepOn(k, l, wq, SleepOpts{Timeout: time.Millisecond})
	})
	waitClosed(t, d, "sleeper")
	if res := <-got; res != WakeTimeout {
		t.Fatalf("wake result = %v, want timeout", res)
	}
	if wq.Len(k) != 0 {
		t.Fatal("timed-out LWP still on waitq")
	}
}

func TestSleepInterruptedBySignal(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	if err := k.SetAction(p, SIGUSR1, SigCatch, func(Signal) {}, 0); err != nil {
		t.Fatal(err)
	}
	wq := NewWaitQ("test")
	got := make(chan WakeResult, 1)
	sleeper, d := animate(k, p, func(l *LWP) {
		got <- sleepOn(k, l, wq, SleepOpts{Interruptible: true})
	})
	for sleeper.State() != LWPSleeping {
		time.Sleep(100 * time.Microsecond)
	}
	if err := k.PostSignal(p, SIGUSR1); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, d, "sleeper")
	if res := <-got; res != WakeInterrupted {
		t.Fatalf("wake result = %v, want interrupted", res)
	}
}

func TestUninterruptibleSleepIgnoresSignal(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	k.SetAction(p, SIGUSR1, SigCatch, func(Signal) {}, 0)
	wq := NewWaitQ("test")
	got := make(chan WakeResult, 1)
	sleeper, d := animate(k, p, func(l *LWP) {
		got <- sleepOn(k, l, wq, SleepOpts{Interruptible: false})
	})
	for sleeper.State() != LWPSleeping {
		time.Sleep(100 * time.Microsecond)
	}
	k.PostSignal(p, SIGUSR1)
	time.Sleep(5 * time.Millisecond)
	select {
	case <-d:
		t.Fatal("uninterruptible sleep was broken by a signal")
	default:
	}
	k.Wakeup(wq, -1)
	waitClosed(t, d, "sleeper")
	if res := <-got; res != WakeNormal {
		t.Fatalf("wake result = %v, want normal", res)
	}
	// The signal is still pending and deliverable after the wake.
	if !sleeper.pending.Has(SIGUSR1) && !p.pendingProc.Has(SIGUSR1) {
		t.Fatal("signal lost during uninterruptible sleep")
	}
}

func TestParkUnpark(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	parked := make(chan struct{})
	lwp, d := animate(k, p, func(l *LWP) {
		close(parked)
		k.Park(l)
	})
	<-parked
	for lwp.State() != LWPParked {
		time.Sleep(100 * time.Microsecond)
	}
	k.Unpark(lwp)
	waitClosed(t, d, "parker")
}

func TestUnparkBeforeParkLeavesPermit(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	_, d := animate(k, p, func(l *LWP) {
		k.Unpark(l) // self-permit
		k.Park(l)   // consumes permit, returns immediately
	})
	waitClosed(t, d, "parker")
}

func TestPriorityRTBeatsTS(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	order := make(chan string, 2)
	// Occupy the only CPU so both contenders queue up as runnable,
	// then yield and observe who is dispatched first.
	release := make(chan struct{})
	gate, dGate := animate(k, p, func(l *LWP) {
		<-release
		k.Yield(l)
	})
	for gate.State() != LWPOnCPU {
		time.Sleep(100 * time.Microsecond)
	}

	start := func(class Class, prio int, tag string) (*LWP, <-chan struct{}) {
		l, err := k.NewLWP(p, class, prio)
		if err != nil {
			t.Fatal(err)
		}
		d := make(chan struct{})
		go func() {
			defer close(d)
			defer func() { recover(); k.ExitLWP(l) }()
			k.Start(l)
			order <- tag
		}()
		return l, d
	}
	tsLWP, dTS := start(ClassTS, 30, "ts")
	rtLWP, dRT := start(ClassRT, 10, "rt")
	for tsLWP.State() != LWPRunnable || rtLWP.State() != LWPRunnable {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	waitClosed(t, dTS, "ts")
	waitClosed(t, dRT, "rt")
	waitClosed(t, dGate, "gate")
	if first := <-order; first != "rt" {
		t.Fatalf("dispatched %q first, want rt", first)
	}
}

func TestSignalDeliveredToUnmaskedLWP(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	handled := make(chan Signal, 1)
	k.SetAction(p, SIGUSR1, SigCatch, func(s Signal) { handled <- s }, 0)
	stop := make(chan struct{})
	lwp, d := animate(k, p, func(l *LWP) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if k.Checkpoint(l) {
				if ts, ok := k.TakeSignal(l); ok && ts.Handler != nil {
					ts.Handler(ts.Sig)
				}
			}
			time.Sleep(time.Millisecond)
		}
	})
	_ = lwp
	k.PostSignal(p, SIGUSR1)
	select {
	case s := <-handled:
		if s != SIGUSR1 {
			t.Fatalf("handled %v, want SIGUSR1", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal never handled")
	}
	close(stop)
	waitClosed(t, d, "worker")
}

func TestFullyMaskedSignalPendsOnProcess(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	k.SetAction(p, SIGUSR2, SigCatch, func(Signal) {}, 0)
	gotSig := make(chan Signal, 1)
	_, d := animate(k, p, func(l *LWP) {
		k.SetLWPMask(l, SigSetMask, MakeSigset(SIGUSR2))
		k.PostSignal(p, SIGUSR2) // masked everywhere: must pend
		if k.SignalPending(l) {
			gotSig <- SIGNONE
			return
		}
		k.SetLWPMask(l, SigUnblock, MakeSigset(SIGUSR2))
		if ts, ok := k.TakeSignal(l); ok {
			gotSig <- ts.Sig
			return
		}
		gotSig <- SIGNONE
	})
	waitClosed(t, d, "worker")
	if s := <-gotSig; s != SIGUSR2 {
		t.Fatalf("after unmask got %v, want SIGUSR2", s)
	}
}

func TestDefaultActionExitKillsProcess(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("forever")
	_, d := animate(k, p, func(l *LWP) {
		sleepOn(k, l, wq, SleepOpts{}) // uninterruptible; death still unwinds
	})
	k.PostSignal(p, SIGTERM)
	waitClosed(t, d, "victim")
	waitClosed(t, p.Exited(), "process")
	if _, sig := p.ExitStatus(); sig != SIGTERM {
		t.Fatalf("kill signal = %v, want SIGTERM", sig)
	}
}

func TestIgnoredSignalDropped(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	k.SetAction(p, SIGTERM, SigIgn, nil, 0)
	_, d := animate(k, p, func(l *LWP) {
		k.PostSignal(p, SIGTERM)
		if k.SignalPending(l) {
			t.Error("ignored signal pending")
		}
	})
	waitClosed(t, d, "worker")
}

func TestSIGKILLUncatchable(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	if err := k.SetAction(p, SIGKILL, SigCatch, func(Signal) {}, 0); err == nil {
		t.Fatal("SetAction(SIGKILL) succeeded, want error")
	}
	wq := NewWaitQ("forever")
	_, d := animate(k, p, func(l *LWP) {
		sleepOn(k, l, wq, SleepOpts{})
	})
	k.PostSignal(p, SIGKILL)
	waitClosed(t, d, "victim")
	if _, sig := p.ExitStatus(); sig != SIGKILL {
		t.Fatalf("kill signal = %v, want SIGKILL", sig)
	}
}

func TestStopAndContinue(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	var progress atomic.Int64
	_, d := animate(k, p, func(l *LWP) {
		for i := 0; i < 1000; i++ {
			progress.Store(int64(i))
			k.Checkpoint(l)
			time.Sleep(50 * time.Microsecond)
		}
	})
	k.PostSignal(p, SIGSTOP)
	// Wait until the process actually stops.
	for p.State() != ProcStopped {
		time.Sleep(100 * time.Microsecond)
	}
	snap := progress.Load()
	time.Sleep(5 * time.Millisecond)
	if got := progress.Load(); got > snap+1 {
		t.Fatalf("progress advanced while stopped: %d -> %d", snap, got)
	}
	k.PostSignal(p, SIGCONT)
	waitClosed(t, d, "worker")
	if got := progress.Load(); got != 999 {
		t.Fatalf("final progress = %d, want 999", got)
	}
}

func TestTrapCaughtByHandler(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	caught := SIGNONE
	k.SetAction(p, SIGFPE, SigCatch, func(s Signal) { caught = s }, 0)
	_, d := animate(k, p, func(l *LWP) {
		if ts, ok := k.RaiseTrap(l, SIGFPE); ok && ts.Handler != nil {
			ts.Handler(ts.Sig)
		}
	})
	waitClosed(t, d, "worker")
	if caught != SIGFPE {
		t.Fatalf("caught = %v, want SIGFPE", caught)
	}
	// The process exits normally (its only LWP returned), not by
	// the trap signal.
	if _, sig := p.ExitStatus(); sig != SIGNONE {
		t.Fatalf("process killed by %v despite caught trap", sig)
	}
}

func TestTrapDefaultKillsProcess(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	_, d := animate(k, p, func(l *LWP) {
		k.RaiseTrap(l, SIGSEGV) // default: core -> unwind
		t.Error("survived default SIGSEGV")
	})
	waitClosed(t, d, "worker")
	waitClosed(t, p.Exited(), "process")
	if _, sig := p.ExitStatus(); sig != SIGSEGV {
		t.Fatalf("kill signal = %v, want SIGSEGV", sig)
	}
}

func TestSigWaitReceivesSignal(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	got := make(chan Signal, 1)
	lwp, d := animate(k, p, func(l *LWP) {
		got <- k.SigWait(l, MakeSigset(SIGUSR1, SIGWAITING))
	})
	for lwp.State() != LWPSigWait {
		time.Sleep(100 * time.Microsecond)
	}
	k.PostSignal(p, SIGUSR1)
	waitClosed(t, d, "sigwaiter")
	if s := <-got; s != SIGUSR1 {
		t.Fatalf("SigWait got %v, want SIGUSR1", s)
	}
}

func TestSIGWAITINGWhenAllLWPsBlockIndefinitely(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	notified := make(chan struct{}, 1)
	p.SetSigwaitingHook(func() {
		select {
		case notified <- struct{}{}:
		default:
		}
	})
	k.SetAction(p, SIGWAITING, SigCatch, func(Signal) {}, 0)
	wq := NewWaitQ("poll")
	var lwps []*LWP
	var dones []<-chan struct{}
	for i := 0; i < 2; i++ {
		l, d := animate(k, p, func(l *LWP) {
			sleepOn(k, l, wq, SleepOpts{Indefinite: true})
		})
		lwps = append(lwps, l)
		dones = append(dones, d)
	}
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGWAITING hook never ran")
	}
	// The hook can fire as soon as the first LWP sleeps, before the
	// second has been created; a Wakeup then would miss the second.
	for _, l := range lwps {
		for l.State() != LWPSleeping {
			time.Sleep(100 * time.Microsecond)
		}
	}
	k.Wakeup(wq, -1)
	for _, d := range dones {
		waitClosed(t, d, "sleeper")
	}
}

func TestNoSIGWAITINGWhileOneLWPRuns(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	fired := make(chan struct{}, 1)
	p.SetSigwaitingHook(func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	wq := NewWaitQ("poll")
	stop := make(chan struct{})
	// Both LWPs exist before the sleeper can block: alone, it would be
	// "every LWP blocked" and SIGWAITING would rightly fire.
	ls, dones := animateAll(k, p, func(l *LWP) {
		sleepOn(k, l, wq, SleepOpts{Indefinite: true})
	}, func(l *LWP) {
		for {
			select {
			case <-stop:
				return
			default:
				k.Yield(l)
			}
		}
	})
	sleeper, d1, d2 := ls[0], dones[0], dones[1]
	for sleeper.State() != LWPSleeping {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("SIGWAITING fired although one LWP is runnable")
	default:
	}
	k.Wakeup(wq, -1)
	close(stop)
	waitClosed(t, d1, "sleeper")
	waitClosed(t, d2, "runner")
}

func TestExitKillsAllLWPs(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("forever")
	_, d1 := animate(k, p, func(l *LWP) {
		sleepOn(k, l, wq, SleepOpts{})
	})
	_, d2 := animate(k, p, func(l *LWP) {
		time.Sleep(2 * time.Millisecond)
		k.Exit(l, 7)
	})
	waitClosed(t, d1, "sleeper unwound")
	waitClosed(t, d2, "exiter")
	waitClosed(t, p.Exited(), "process")
	if st, sig := p.ExitStatus(); st != 7 || sig != SIGNONE {
		t.Fatalf("exit status = %d/%v, want 7/none", st, sig)
	}
}

func TestWaitChildReapsZombie(t *testing.T) {
	k := newTestKernel(1)
	parent := k.NewProcess("parent", nil)
	gotChld := make(chan Signal, 1)
	k.SetAction(parent, SIGCHLD, SigCatch, func(s Signal) { gotChld <- s }, 0)
	res := make(chan WaitResult, 1)
	_, d := animate(k, parent, func(l *LWP) {
		child, cl, _, err := k.Fork(l, false)
		if err != nil {
			t.Error(err)
			return
		}
		go func() {
			defer func() { recover(); k.ExitLWP(cl) }()
			k.Start(cl)
			k.Exit(cl, 42)
		}()
		_ = child
		r, err := k.WaitChild(l, -1)
		if err != nil {
			t.Error(err)
			return
		}
		res <- r
	})
	waitClosed(t, d, "parent")
	r := <-res
	if r.Status != 42 {
		t.Fatalf("child status = %d, want 42", r.Status)
	}
	if _, ok := k.FindProcess(r.PID); ok {
		t.Fatal("child not reaped")
	}
}

func TestWaitChildNoChildren(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	var err error
	_, d := animate(k, p, func(l *LWP) {
		_, err = k.WaitChild(l, -1)
	})
	waitClosed(t, d, "waiter")
	if err != ErrChild {
		t.Fatalf("err = %v, want ErrChild", err)
	}
}

func TestForkAllDuplicatesLWPsAndEINTRsSleepers(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("pollish")
	sleepRes := make(chan WakeResult, 1)
	sleeper, dSleep := animate(k, p, func(l *LWP) {
		sleepRes <- sleepOn(k, l, wq, SleepOpts{Interruptible: true, Indefinite: true})
	})
	for sleeper.State() != LWPSleeping {
		time.Sleep(100 * time.Microsecond)
	}
	var nOthers int
	var childLive int
	_, dFork := animate(k, p, func(l *LWP) {
		child, cl, others, err := k.Fork(l, true)
		if err != nil {
			t.Error(err)
			return
		}
		nOthers = len(others)
		childLive = child.NumLWPs()
		// Retire the child records so the child process finishes.
		k.ExitLWP(cl)
		for _, o := range others {
			k.ExitLWP(o.LWP)
		}
	})
	waitClosed(t, dSleep, "sleeper")
	waitClosed(t, dFork, "forker")
	if res := <-sleepRes; res != WakeInterrupted {
		t.Fatalf("sleeper wake = %v, want interrupted (EINTR on fork)", res)
	}
	if nOthers != 1 {
		t.Fatalf("fork duplicated %d other LWPs, want 1", nOthers)
	}
	if childLive != 2 {
		t.Fatalf("child has %d LWPs, want 2", childLive)
	}
}

func TestForkHooksRun(t *testing.T) {
	k := newTestKernel(1)
	type fdtable struct{ n int }
	k.AddForkHook(func(parent, child *Process) {
		child.Files = &fdtable{n: parent.Files.(*fdtable).n}
	})
	p := k.NewProcess("p", nil)
	p.Files = &fdtable{n: 5}
	var childN int
	_, d := animate(k, p, func(l *LWP) {
		child, cl, _, err := k.Fork(l, false)
		if err != nil {
			t.Error(err)
			return
		}
		childN = child.Files.(*fdtable).n
		k.ExitLWP(cl)
	})
	waitClosed(t, d, "forker")
	if childN != 5 {
		t.Fatalf("child fd table n = %d, want 5", childN)
	}
}

func TestExecTearsDownOtherLWPs(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	wq := NewWaitQ("forever")
	_, dOther := animate(k, p, func(l *LWP) {
		sleepOn(k, l, wq, SleepOpts{})
	})
	var newLWP *LWP
	_, dExec := animate(k, p, func(l *LWP) {
		time.Sleep(2 * time.Millisecond)
		nl, err := k.Exec(l, "newimage")
		if err != nil {
			t.Error(err)
			return
		}
		newLWP = nl
		// Animate the fresh LWP 0 and exit cleanly.
		go func() {
			defer func() { recover(); k.ExitLWP(nl) }()
			k.Start(nl)
		}()
	})
	waitClosed(t, dOther, "victim unwound by exec")
	waitClosed(t, dExec, "execer")
	waitClosed(t, p.Exited(), "process")
	if newLWP == nil {
		t.Fatal("no new LWP from exec")
	}
	if p.Name() != "newimage" {
		t.Fatalf("process name = %q, want newimage", p.Name())
	}
}

func TestItimerRealFiresSIGALRM(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	got := make(chan Signal, 1)
	k.SetAction(p, SIGALRM, SigCatch, func(Signal) {}, 0)
	started := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		if err := k.Setitimer(l, ITimerReal, 100*time.Millisecond, 0); err != nil {
			t.Error(err)
		}
		close(started)
		for !k.SignalPending(l) {
			time.Sleep(200 * time.Microsecond)
		}
		if ts, ok := k.TakeSignal(l); ok {
			got <- ts.Sig
		}
	})
	<-started
	clk.Advance(100 * time.Millisecond)
	waitClosed(t, d, "worker")
	if s := <-got; s != SIGALRM {
		t.Fatalf("got %v, want SIGALRM", s)
	}
}

func TestVirtualTimerChargesUserTime(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	k.SetAction(p, SIGVTALRM, SigCatch, func(Signal) {}, 0)
	got := make(chan Signal, 1)
	ready := make(chan struct{})
	step := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		k.Setitimer(l, ITimerVirtual, 50*time.Millisecond, 0)
		close(ready) // on CPU from here on
		<-step       // test advances the clock while we are "computing"
		k.Checkpoint(l)
		if ts, ok := k.TakeSignal(l); ok {
			got <- ts.Sig
		} else {
			got <- SIGNONE
		}
	})
	// Advance virtual time while the LWP is on CPU in user mode,
	// then let it hit a checkpoint, which charges the time.
	<-ready
	clk.Advance(60 * time.Millisecond)
	close(step)
	waitClosed(t, d, "worker")
	if s := <-got; s != SIGVTALRM {
		t.Fatalf("got %v, want SIGVTALRM", s)
	}
}

func TestRusageAccumulates(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	step := make(chan struct{})
	ready := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		close(ready) // on CPU from here on
		<-step
		k.Checkpoint(l) // charge 10ms user
		k.SyscallEnter(l)
		<-step
		k.SyscallExit(l) // charge 20ms sys
	})
	<-ready
	clk.Advance(10 * time.Millisecond)
	step <- struct{}{}
	for {
		r := p.Getrusage()
		if r.UserTime >= 10*time.Millisecond {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(20 * time.Millisecond)
	step <- struct{}{}
	waitClosed(t, d, "worker")
	r := p.Getrusage()
	if r.UserTime < 10*time.Millisecond {
		t.Fatalf("user time = %v, want >= 10ms", r.UserTime)
	}
	if r.SysTime < 20*time.Millisecond {
		t.Fatalf("sys time = %v, want >= 20ms", r.SysTime)
	}
}

func TestCPULimitSendsSIGXCPU(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	p.SetCPULimit(Rlimit{Soft: 5 * time.Millisecond, Hard: RlimitInfinity})
	k.SetAction(p, SIGXCPU, SigCatch, func(Signal) {}, 0)
	got := make(chan Signal, 1)
	ready := make(chan struct{})
	step := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		close(ready)
		<-step
		k.Checkpoint(l)
		if ts, ok := k.TakeSignal(l); ok {
			got <- ts.Sig
		} else {
			got <- SIGNONE
		}
	})
	<-ready
	clk.Advance(10 * time.Millisecond)
	close(step)
	waitClosed(t, d, "worker")
	if s := <-got; s != SIGXCPU {
		t.Fatalf("got %v, want SIGXCPU", s)
	}
}

func TestProfilingChargesLabels(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	buf := NewProfBuffer()
	ready := make(chan struct{})
	step := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		k.SetProfiling(l, buf)
		k.SetProfLabel(l, "compute")
		close(ready)
		<-step
		k.SetProfLabel(l, "idle") // charges "compute" up to now
	})
	<-ready
	clk.Advance(30 * time.Millisecond)
	close(step)
	waitClosed(t, d, "worker")
	if got := buf.Total("compute"); got < 30*time.Millisecond {
		t.Fatalf("compute charged %v, want >= 30ms", got)
	}
}

func TestPriocntlValidation(t *testing.T) {
	k := newTestKernel(1)
	p := k.NewProcess("p", nil)
	l, _ := k.NewLWP(p, ClassTS, 30)
	if err := k.Priocntl(l, ClassRT, -1); err == nil {
		t.Fatal("negative priority accepted")
	}
	if err := k.Priocntl(l, ClassRT, MaxUserPrio+1); err == nil {
		t.Fatal("too-large priority accepted")
	}
	if err := k.Priocntl(l, ClassRT, 10); err != nil {
		t.Fatal(err)
	}
	if l.Class() != ClassRT {
		t.Fatalf("class = %v, want RT", l.Class())
	}
	k.ExitLWP(l)
}

func TestBindCPUValidation(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	l, _ := k.NewLWP(p, ClassTS, 30)
	if err := k.BindCPU(l, 5); err == nil {
		t.Fatal("bind to nonexistent CPU accepted")
	}
	if err := k.BindCPU(l, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.BindCPU(l, -1); err != nil {
		t.Fatal(err)
	}
	k.ExitLWP(l)
}

func TestBoundLWPRunsOnItsCPU(t *testing.T) {
	k := newTestKernel(2)
	p := k.NewProcess("p", nil)
	l, err := k.NewLWP(p, ClassTS, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.BindCPU(l, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover(); k.ExitLWP(l) }()
		k.Start(l)
		for i := 0; i < 10; i++ {
			k.mu.Lock()
			cpu := l.cpu
			k.mu.Unlock()
			if cpu == nil || cpu.id != 1 {
				t.Errorf("bound LWP on cpu %v, want 1", cpu)
				return
			}
			k.Yield(l)
		}
	}()
	waitClosed(t, done, "bound LWP")
}

func TestSleepForManualClock(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 1, Clock: clk})
	p := k.NewProcess("p", nil)
	slept := make(chan error, 1)
	started := make(chan struct{})
	_, d := animate(k, p, func(l *LWP) {
		close(started)
		slept <- k.SleepFor(l, 50*time.Millisecond)
	})
	<-started
	for clk.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(50 * time.Millisecond)
	waitClosed(t, d, "sleeper")
	if err := <-slept; err != nil {
		t.Fatal(err)
	}
}

// sleepOn sleeps unconditionally: the tests that use it wake the queue
// only after they have seen the LWP asleep, so there is nothing for a
// commit condition to check.
func sleepOn(k *Kernel, l *LWP, wq *WaitQ, o SleepOpts) WakeResult {
	res, _, _ := k.SleepIf(l, wq, nil, o)
	return res
}
