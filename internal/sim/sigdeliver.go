package sim

import (
	"fmt"
	"time"

	"sunosmt/internal/trace"
)

// This file implements the kernel half of the paper's signal model.
//
// Signals are divided into traps (caused synchronously by a thread,
// handled only by that thread) and interrupts (asynchronous; handled
// by any one LWP/thread that has the signal unmasked). Each LWP has
// its own signal mask; the threads library points the LWP mask at the
// mask of the thread currently running on it, which is how per-thread
// masks are realized. All threads share the per-process disposition
// vector. If every LWP masks an interrupt it pends on the process
// until some LWP unmasks it. The number of signals received is less
// than or equal to the number sent (pending is a set, not a queue).

// SetAction installs a disposition for sig process-wide, like
// sigaction(2). handler is recorded by the kernel and run by the
// library in thread context; handlerMask is OR-ed into the handling
// context's mask for the duration of the handler.
func (k *Kernel) SetAction(p *Process, sig Signal, disp Disposition, handler func(Signal), handlerMask Sigset) error {
	return k.SetActionCookie(p, sig, disp, handler, nil, handlerMask)
}

// SetActionCookie is SetAction with an opaque cookie the library can
// retrieve from delivered signals; the threads library stores its
// thread-context handler (func(*Thread, Signal)) there.
func (k *Kernel) SetActionCookie(p *Process, sig Signal, disp Disposition, handler func(Signal), cookie any, handlerMask Sigset) error {
	if !sig.Valid() {
		return fmt.Errorf("sim: bad signal %d", int(sig))
	}
	if sig == SIGKILL || sig == SIGSTOP {
		return fmt.Errorf("sim: cannot change disposition of %v", sig)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	p.actions[sig] = sigaction{disp: disp, handler: handler, cookie: cookie, mask: handlerMask}
	// Re-ignoring discards pending instances, as in SVR4.
	if disp == SigIgn || (disp == SigDfl && DefaultActionOf(sig) == ActIgnore) {
		p.pendingProc = p.pendingProc.Del(sig)
		for _, l := range p.lwps {
			l.pending = l.pending.Del(sig)
		}
	}
	return nil
}

// Action returns the current disposition of sig for the process.
func (k *Kernel) Action(p *Process, sig Signal) Disposition {
	k.mu.Lock()
	defer k.mu.Unlock()
	return p.actions[sig].disp
}

// ActionInfo returns the full disposition of sig: how it is handled,
// the catch function, the library cookie, and the mask applied while
// handling. The threads library uses it to run handlers in thread
// context.
func (k *Kernel) ActionInfo(p *Process, sig Signal) (disp Disposition, handler func(Signal), cookie any, handlerMask Sigset) {
	k.mu.Lock()
	defer k.mu.Unlock()
	a := p.actions[sig]
	return a.disp, a.handler, a.cookie, a.mask
}

// ApplyDefault applies sig's SIG_DFL action to the calling LWP's
// process: terminating and stopping actions are taken (termination
// unwinds the caller); ignore/continue are no-ops. The threads
// library calls this when a thread-directed signal with default
// disposition must take effect.
func (k *Kernel) ApplyDefault(l *LWP, sig Signal) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch DefaultActionOf(sig) {
	case ActIgnore, ActContinue:
		return
	case ActStop:
		k.stopProcLocked(l.proc)
		k.checkpointLocked(l, k.clock.Now())
	default:
		k.killProcLocked(l.proc, 0, sig, DefaultActionOf(sig) == ActCore, k.rings.Now())
		k.unwindLocked(l, "fatal signal "+sig.String())
	}
}

// PostSignal sends sig to the process as an interrupt (kill(2)).
func (k *Kernel) PostSignal(p *Process, sig Signal) error {
	if !sig.Valid() {
		return fmt.Errorf("sim: bad signal %d", int(sig))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.postSignalLocked(p, sig, nil, k.rings.Now())
	return nil
}

// PostSignalLWP sends sig directed at a specific LWP (used by the
// threads library for bound threads and by per-LWP timers). A
// directed signal behaves like a trap: only that LWP handles it.
func (k *Kernel) PostSignalLWP(l *LWP, sig Signal) error {
	if !sig.Valid() {
		return fmt.Errorf("sim: bad signal %d", int(sig))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.postSignalLocked(l.proc, sig, l, k.rings.Now())
	return nil
}

// postSignalLocked routes sig to the process or, with target set, to
// that LWP. now is for what a post may wake (see wakeLWPLocked).
func (k *Kernel) postSignalLocked(p *Process, sig Signal, target *LWP, now time.Duration) {
	if p.dying || p.state == ProcZombie || p.state == ProcDead {
		return
	}

	// SIGKILL, SIGSTOP and SIGCONT act immediately; they cannot be
	// caught or blocked (CONT's continue action happens even if
	// caught).
	switch sig {
	case SIGKILL:
		k.killProcLocked(p, 0, sig, false, now)
		return
	case SIGSTOP:
		k.stopProcLocked(p)
		return
	case SIGCONT:
		k.contProcLocked(p)
		if p.actions[sig].disp != SigCatch {
			return
		}
	}

	// The SIGWAITING hook is the library's ASLWP stand-in: it runs
	// regardless of the signal's disposition, so the library can
	// ignore SIGWAITING (avoiding EINTR storms in its own blocked
	// LWPs) and still grow the pool. A post made while SleepIf commits
	// a sleep leaves the hook to that sleeping LWP; the rare others
	// (SigWait, ExitLWP, kill) start a goroutine.
	if sig == SIGWAITING && p.sigwaitingHook != nil {
		if p.sleeperPosts {
			p.hookDue = true
		} else {
			go p.sigwaitingHook()
		}
	}

	// A sigwaiter (the library's ASLWP) takes precedence and
	// bypasses dispositions: it asked for the signal explicitly.
	for _, l := range p.lwps {
		if l.state == LWPSigWait && l.sigwaitS.Has(sig) {
			l.sigDelivered = sig
			l.woken = true
			l.cond.Broadcast()
			return
		}
	}

	act := p.actions[sig]
	switch act.disp {
	case SigIgn:
		return
	case SigDfl:
		switch DefaultActionOf(sig) {
		case ActIgnore:
			return
		case ActExit:
			k.killProcLocked(p, 0, sig, false, now)
			return
		case ActCore:
			k.killProcLocked(p, 0, sig, true, now)
			return
		case ActStop:
			k.stopProcLocked(p)
			return
		case ActContinue:
			return // already continued above
		}
	}

	// Caught signal: route to an LWP.
	if target != nil {
		target.pending = target.pending.Add(sig)
		target.slow.Store(true)
		k.kickLocked(target, now)
		return
	}
	// Prefer an LWP that can notice soonest: interruptible
	// sleepers wake with EINTR; on-CPU LWPs see the signal at
	// their next checkpoint; runnable LWPs when dispatched.
	var onCPU, sleeper, runnable *LWP
	for _, l := range p.lwps {
		if l.mask.Has(sig) || l.state == LWPZombie {
			continue
		}
		switch l.state {
		case LWPSleeping:
			if l.interruptible && sleeper == nil {
				sleeper = l
			}
		case LWPOnCPU:
			if onCPU == nil {
				onCPU = l
			}
		case LWPRunnable:
			if runnable == nil {
				runnable = l
			}
		}
	}
	switch {
	case sleeper != nil:
		sleeper.pending = sleeper.pending.Add(sig)
		sleeper.slow.Store(true)
		k.kickLocked(sleeper, now)
	case onCPU != nil:
		onCPU.pending = onCPU.pending.Add(sig)
		onCPU.slow.Store(true)
		k.kickLocked(onCPU, now)
	case runnable != nil:
		runnable.pending = runnable.pending.Add(sig)
		runnable.slow.Store(true)
	default:
		// All threads mask it: pend on the process until a
		// thread unmasks the signal (paper).
		p.pendingProc = p.pendingProc.Add(sig)
		p.postAllLocked()
	}
}

// kickLocked prods an LWP so it notices pending state soon.
func (k *Kernel) kickLocked(l *LWP, now time.Duration) {
	if l.state == LWPSleeping && l.interruptible {
		k.wakeLWPLocked(l, now, WakeInterrupted)
	}
	// On-CPU and runnable LWPs notice pending signals at their next
	// checkpoint; preemption is cooperative throughout.
}

// deliverableLocked returns the set of signals currently deliverable
// to l: pending on the LWP or the process and not masked.
func (k *Kernel) deliverableLocked(l *LWP) Sigset {
	return (l.pending | l.proc.pendingProc).Minus(l.mask)
}

// SignalPending reports whether TakeSignal would find a signal.
func (k *Kernel) SignalPending(l *LWP) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.deliverableLocked(l) != 0
}

// TakenSignal describes one signal consumed by TakeSignal.
type TakenSignal struct {
	Sig Signal
	// Handler is the process's catch function. Nil means the
	// signal's action was applied inside the kernel (ignored) and
	// the caller has nothing to run.
	Handler func(Signal)
	// Cookie is the opaque library data installed with the action.
	Cookie any
	// HandlerMask is OR-ed into the handling context's signal mask
	// while the handler runs.
	HandlerMask Sigset
}

// TakeSignal consumes the lowest-numbered deliverable signal for the
// LWP and returns what the animator should do with it. Default
// dispositions that terminate or stop the process are applied here
// (termination unwinds via panic). ok is false when nothing is
// deliverable.
func (k *Kernel) TakeSignal(l *LWP) (ts TakenSignal, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for {
		ds := k.deliverableLocked(l)
		sig := ds.Lowest()
		if sig == SIGNONE {
			return TakenSignal{}, false
		}
		// Consume from the LWP first, then the process.
		if l.pending.Has(sig) {
			l.pending = l.pending.Del(sig)
		} else {
			l.proc.pendingProc = l.proc.pendingProc.Del(sig)
		}
		act := l.proc.actions[sig]
		switch act.disp {
		case SigIgn:
			continue
		case SigDfl:
			switch DefaultActionOf(sig) {
			case ActIgnore, ActContinue:
				continue
			case ActStop:
				k.stopProcLocked(l.proc)
				k.checkpointLocked(l, k.clock.Now()) // parks here until SIGCONT
				continue
			default: // exit or core
				k.killProcLocked(l.proc, 0, sig, DefaultActionOf(sig) == ActCore, k.rings.Now())
				k.unwindLocked(l, "fatal signal "+sig.String())
			}
		}
		return TakenSignal{Sig: sig, Handler: act.handler, Cookie: act.cookie, HandlerMask: act.mask}, true
	}
}

// RaiseTrap delivers a synchronous trap (SIGFPE, SIGSEGV, ...) caused
// by the LWP's own execution. Traps are handled only by the thread
// that caused them (paper). If the trap is caught, the handler is
// returned for the caller to run synchronously; if ignored, ok is
// false; if the default action applies, the process is terminated and
// the call unwinds.
func (k *Kernel) RaiseTrap(l *LWP, sig Signal) (ts TakenSignal, ok bool) {
	if !sig.IsTrap() {
		panic(fmt.Sprintf("sim: RaiseTrap(%v): not a trap signal", sig))
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	act := l.proc.actions[sig]
	switch act.disp {
	case SigIgn:
		return TakenSignal{}, false
	case SigCatch:
		return TakenSignal{Sig: sig, Handler: act.handler, Cookie: act.cookie, HandlerMask: act.mask}, true
	}
	switch DefaultActionOf(sig) {
	case ActIgnore:
		return TakenSignal{}, false
	default:
		k.killProcLocked(l.proc, 0, sig, DefaultActionOf(sig) == ActCore, k.rings.Now())
		k.unwindLocked(l, "fatal trap "+sig.String())
	}
	return TakenSignal{}, false
}

// SetLWPMask manipulates the LWP's signal mask and returns the old
// mask. The threads library points this at the running thread's mask
// on every thread dispatch. SIGKILL and SIGSTOP cannot be masked.
func (k *Kernel) SetLWPMask(l *LWP, how SigHow, set Sigset) Sigset {
	k.mu.Lock()
	defer k.mu.Unlock()
	old := l.mask
	l.mask = ApplyMask(old, how, set).Minus(unmaskable)
	l.slow.Store(true) // an unmasked process-pending signal is now deliverable
	return old
}

// LWPMask returns the LWP's current signal mask.
func (k *Kernel) LWPMask(l *LWP) Sigset {
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.mask
}

// SigWait blocks until one of the signals in set is posted to the
// process, consumes it, and returns it. The waiting LWP is excluded
// from the SIGWAITING all-blocked computation; the threads library's
// ASLWP sits here to receive SIGWAITING and asynchronous signals.
func (k *Kernel) SigWait(l *LWP, set Sigset) Signal {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	p := l.proc
	// Already pending on the process?
	if got := (p.pendingProc | l.pending) & set; got != 0 {
		sig := got.Lowest()
		p.pendingProc = p.pendingProc.Del(sig)
		l.pending = l.pending.Del(sig)
		return sig
	}
	k.releaseCPULocked(l, now, LWPSigWait)
	l.sigwaitS = set
	l.sigDelivered = SIGNONE
	l.woken = false
	p.sigwaiters++
	k.maybeSigwaitingLocked(p, now)
	for !l.woken {
		l.cond.Wait()
		if reason, bad := k.mustUnwindLocked(l); bad {
			p.sigwaiters--
			l.sigwaitS = 0
			// ExitLWP must not double-decrement.
			k.setLWPStateLocked(l, k.clock.Now(), LWPRunnable)
			k.unwindLocked(l, reason)
		}
	}
	p.sigwaiters--
	l.sigwaitS = 0
	sig := l.sigDelivered
	k.makeRunnableLocked(l, k.clock.Now())
	k.waitOnCPULocked(l)
	return sig
}

// maybeSigwaitingLocked posts SIGWAITING when every live LWP that is
// not itself sitting in SigWait is blocked in an indefinite wait
// (paper: "A new signal, SIGWAITING, is sent to the process when all
// its LWPs are waiting for some indefinite, external event").
// Edge-triggered: it fires once per all-blocked episode.
func (k *Kernel) maybeSigwaitingLocked(p *Process, now time.Duration) {
	if p.dying || p.state != ProcRunning {
		return
	}
	eligible := p.liveLWPs - p.sigwaiters
	if eligible <= 0 || p.indefSleepers < eligible || p.sigwaitingOn.Load() {
		return
	}
	p.sigwaitingOn.Store(true)
	k.rings.RecordAt(now, -1, trace.EvSigwaiting, int(p.pid), 0, 0, uint64(eligible))
	k.postSignalLocked(p, SIGWAITING, nil, now)
}

// --- process-level default actions -------------------------------------

// killProcLocked begins involuntary termination of the process.
func (k *Kernel) killProcLocked(p *Process, status int, sig Signal, core bool, now time.Duration) {
	if p.dying || p.state == ProcZombie || p.state == ProcDead {
		return
	}
	p.dying = true
	p.exitStatus = status
	p.killSig = sig
	p.dumpedCore = core
	p.state = ProcRunning // a stopped process being killed resumes to die
	// Wake every blocked LWP so its animator observes dying and
	// unwinds; on-CPU LWPs observe it at their next checkpoint, and
	// runnable LWPs re-check in waitOnCPULocked after the broadcast.
	// Pull runnables off the run queue first so the dispatcher does
	// not hand a dying LWP a CPU in the window before its animator
	// wakes. The death hooks wait for the last LWP to unwind
	// (finalizeProcLocked).
	for _, l := range p.lwps {
		k.dequeueLocked(l)
		l.slow.Store(true)
		l.cond.Broadcast()
	}
	if p.liveLWPs == 0 {
		k.finalizeProcLocked(p, now)
	}
}

// Abort terminates the calling LWP's process as if a fatal SIGABRT
// with a core dump had been delivered, recording msg as the abort
// reason, then unwinds the caller. The threads library uses it to
// contain a panicking thread body: the panic becomes a simulated
// process death instead of crashing the host. Abort never returns —
// it panics with *Unwind, which the animator's recovery handles.
func (k *Kernel) Abort(l *LWP, msg string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := l.proc
	if !p.dying && p.state != ProcZombie && p.state != ProcDead {
		p.abortMsg = msg
		k.killProcLocked(p, 0, SIGABRT, true, k.rings.Now())
	}
	k.unwindLocked(l, "abort")
}

func (k *Kernel) stopProcLocked(p *Process) {
	if p.state != ProcRunning || p.dying {
		return
	}
	p.state = ProcStopped
	// On-CPU LWPs park at their next checkpoint; nothing to do for
	// sleepers (they stop when they wake and hit a checkpoint).
	p.postAllLocked()
}

func (k *Kernel) contProcLocked(p *Process) {
	if p.state != ProcStopped {
		return
	}
	p.state = ProcRunning
	for _, l := range p.lwps {
		l.cond.Broadcast()
	}
}

// finalizeProcLocked turns a process with no remaining LWPs into a
// zombie, starts the death hooks, notifies the parent, and reparents
// children.
//
// The hooks start here, not when a kill begins: until its last LWP has
// unwound, a thread of the dying process can still be in user code
// (an on-CPU LWP sees dying only at its next checkpoint) and could
// take back a shared lock or unit the owner-dead sweep had just
// released. They run exactly once per process death (the state guard
// makes re-entry impossible) — after a kill, an Exit, or the last LWP
// exiting on its own — on fresh goroutines, so they may take the
// kernel lock themselves.
func (k *Kernel) finalizeProcLocked(p *Process, now time.Duration) {
	if p.state == ProcZombie || p.state == ProcDead {
		return
	}
	p.state = ProcZombie
	for _, h := range k.deathHooks {
		go h(p)
	}
	// Reparent live children to nobody (the kernel reaps their
	// zombies directly), and release zombie children now.
	for _, c := range p.children {
		c.parent = nil
		if c.state == ProcZombie {
			k.reapLocked(c)
		}
	}
	p.children = nil
	p.zombies = nil
	if p.parent != nil {
		p.parent.zombies = append(p.parent.zombies, p)
		k.postSignalLocked(p.parent, SIGCHLD, nil, now)
		k.wakeupLocked(&p.parent.waitq, -1, now)
	} else {
		k.reapLocked(p)
	}
	close(p.exitedCh)
}

func (k *Kernel) reapLocked(p *Process) {
	if p.state == ProcDead {
		return
	}
	p.state = ProcDead
	delete(k.procs, p.pid)
}
