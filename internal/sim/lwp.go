package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LWPID identifies an LWP within its process. There is no system-wide
// name space for LWPs (paper, "Threads and lightweight processes").
type LWPID int

// LWPState is the kernel-visible state of an LWP.
type LWPState int

// LWP states.
const (
	// LWPEmbryo: created, animator has not called Start yet.
	LWPEmbryo LWPState = iota
	// LWPRunnable: wants a CPU.
	LWPRunnable
	// LWPOnCPU: currently holding a CPU.
	LWPOnCPU
	// LWPSleeping: blocked in the kernel on a wait queue.
	LWPSleeping
	// LWPParked: idle, parked by the threads library (lwp_park).
	LWPParked
	// LWPStopped: stopped by job control or process stop.
	LWPStopped
	// LWPSigWait: blocked in SigWait (the library's ASLWP). Not
	// counted as an indefinite sleeper for SIGWAITING purposes.
	LWPSigWait
	// LWPZombie: exited.
	LWPZombie
)

// String implements fmt.Stringer.
func (s LWPState) String() string {
	switch s {
	case LWPEmbryo:
		return "embryo"
	case LWPRunnable:
		return "runnable"
	case LWPOnCPU:
		return "oncpu"
	case LWPSleeping:
		return "sleeping"
	case LWPParked:
		return "parked"
	case LWPStopped:
		return "stopped"
	case LWPSigWait:
		return "sigwait"
	case LWPZombie:
		return "zombie"
	}
	return fmt.Sprintf("LWPState(%d)", int(s))
}

// WakeResult reports why a Sleep returned.
type WakeResult int

// Sleep outcomes.
const (
	WakeNormal WakeResult = iota
	// WakeInterrupted: an interruptible sleep was broken by a
	// signal (the syscall should return EINTR).
	WakeInterrupted
	// WakeTimeout: the sleep's timeout expired.
	WakeTimeout
)

// LWP is a lightweight process: the kernel-supported thread of
// control. It consists of a data structure in the kernel used for
// processor scheduling, page-fault handling, and kernel-call
// execution, plus state private to the LWP (paper, "Lightweight
// process state").
//
// An LWP has no goroutine of its own inside the kernel; whichever
// goroutine currently animates the LWP (the threads library's
// dispatcher between threads, or a thread goroutine while it runs and
// during its system calls) drives it through the Kernel's methods.
type LWP struct {
	id   LWPID
	proc *Process

	// Scheduling state; guarded by Kernel.mu.
	state      LWPState
	class      Class
	userPrio   int
	gang       int // gang group id when class == ClassGang, else 0
	cpu        *CPU
	boundCPU   *CPU
	ps         *pset      // processor set the LWP runs in (default set if unbound)
	psBound    bool       // explicitly bound to a user pset (counts in pset.nbound)
	cond       *sync.Cond // signalled when state changes to OnCPU or wake conditions
	preempt    bool       // yield CPU at next checkpoint
	onCPUSince time.Duration
	chargeMark time.Duration // last point CPU time was attributed
	cpuUsage   time.Duration // decayed usage, drives TS priority
	lastDecay  time.Duration

	// Checkpoint fast path (Kernel.Checkpoint). slow means the next
	// checkpoint must take k.mu: every poster of something a checkpoint
	// acts on sets it under k.mu, and each locked checkpoint recomputes
	// it. fastUntil is the next TS decay (never, for a class that does
	// not decay), which a lock-free checkpoint must come before. ckptAt
	// is the clock reading of the last lock-free checkpoint: the point
	// settleLocked charges up to.
	slow      atomic.Bool
	fastUntil atomic.Int64
	ckptAt    atomic.Int64

	// Intrusive dispatch-queue node (dispq.go): the per-CPU run
	// queue the LWP is waiting on, its level there, and the FIFO
	// links. Guarded by Kernel.mu.
	rqNext, rqPrev *LWP
	rqCPU          *CPU
	rqLevel        int
	rqOn           bool

	// Microstate accounting (see microstate.go); guarded by
	// Kernel.mu except curCPU, an atomic mirror of the current CPU
	// id (-1 off-CPU) read lock-free by the threads library.
	msBorn  time.Duration
	msMark  time.Duration
	msAcc   [NumLWPMicro]time.Duration
	lastCPU int // previous CPU dispatched on; -1 before first dispatch
	curCPU  atomic.Int32

	// Sleep state; guarded by Kernel.mu. wqNext/wqPrev are the
	// intrusive links of the WaitQ the LWP sleeps on. sleepDeadline is
	// when the current sleep times out, 0 when it has no bound or the
	// LWP is not sleeping; a nonzero one is queued in the kernel's
	// callout at coIdx, ordered after earlier equal deadlines by coSeq.
	wq            *WaitQ
	wqNext        *LWP
	wqPrev        *LWP
	wakeRes       WakeResult
	woken         bool
	sleepDeadline time.Duration
	coIdx         int
	coSeq         uint64
	parkPermit    bool
	indefinite    bool
	interruptible bool
	sigDelivered  Signal // set when a SigWait is satisfied

	// Signal state; guarded by Kernel.mu. Per the paper each LWP
	// has its own signal mask; the threads library points it at the
	// mask of whichever thread the LWP is currently executing.
	mask     Sigset
	pending  Sigset
	sigwaitS Sigset // set being waited for in SigWait

	// Alternate signal stack (paper: per-LWP state — "Alternate
	// signal stack and masks for alternate stack disable and
	// onstack"). Guarded by Kernel.mu.
	altStack AltStack

	// In-syscall flag plus times; guarded by Kernel.mu.
	inSyscall    bool
	syscallStart time.Duration

	// Resource usage (paper: "User time and system CPU usage" are
	// per-LWP state). Guarded by Kernel.mu.
	userTime time.Duration
	sysTime  time.Duration

	// Interval timers ("Each LWP has two private interval timers").
	vtimer *itimer // decrements in LWP user time -> SIGVTALRM
	ptimer *itimer // decrements in user+system time -> SIGPROF

	// Profiling ("Profiling is enabled for each LWP individually").
	prof      *ProfBuffer
	profLabel string

	// exited is closed when the LWP becomes a zombie; used by
	// LWP reapers and tests.
	exited chan struct{}
}

// ID returns the LWP's id, unique within its process.
func (l *LWP) ID() LWPID { return l.id }

// Process returns the owning process.
func (l *LWP) Process() *Process { return l.proc }

// State returns the LWP's current scheduling state.
func (l *LWP) State() LWPState {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.state
}

// Class returns the LWP's scheduling class.
func (l *LWP) Class() Class {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.class
}

// Wchan returns the name of the kernel wait queue the LWP is sleeping
// on ("" when it is not sleeping) — the /proc WCHAN of this kernel.
// Priority returns the LWP's class-relative user priority.
func (l *LWP) Priority() int {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.userPrio
}

// BoundCPU reports the CPU the LWP is hard-bound to (BindCPU), or -1
// when it may run on any CPU of its processor set.
func (l *LWP) BoundCPU() int {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.boundCPU == nil {
		return -1
	}
	return l.boundCPU.id
}

func (l *LWP) Wchan() string {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.wq != nil {
		return l.wq.name
	}
	return ""
}

// OnCPUFor returns how long the LWP has continuously held a CPU (0
// when it is not on one) — the signal the deadman watchdog judges
// against its deadline to flag an LWP stuck on-CPU.
func (l *LWP) OnCPUFor() time.Duration {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state != LWPOnCPU {
		return 0
	}
	return k.clock.Now() - l.onCPUSince
}

// Usage returns the LWP's accumulated user and system CPU time.
func (l *LWP) Usage() (user, sys time.Duration) {
	k := l.proc.kern
	k.mu.Lock()
	defer k.mu.Unlock()
	k.settleLocked(l)
	return l.userTime, l.sysTime
}

// Exited returns a channel closed when the LWP has exited.
func (l *LWP) Exited() <-chan struct{} { return l.exited }

// AltStack is an LWP's alternate signal stack registration, like
// sigaltstack(2). The stack memory itself is simulated (signal
// handlers run on goroutine stacks), but the registration, disable
// flag and on-stack flag are real per-LWP state: the paper makes
// alternate stacks an LWP capability that unbound threads cannot use.
type AltStack struct {
	Base    int64
	Size    int64
	Enabled bool
	OnStack bool
}

// SigAltStack installs (or with enabled=false disables) the LWP's
// alternate signal stack.
func (k *Kernel) SigAltStack(l *LWP, base, size int64, enabled bool) {
	k.mu.Lock()
	l.altStack = AltStack{Base: base, Size: size, Enabled: enabled}
	k.mu.Unlock()
}

// AltStackState returns the LWP's alternate-stack registration.
func (k *Kernel) AltStackState(l *LWP) AltStack {
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.altStack
}

// enterAltStackLocked marks handler execution on the alternate stack.
func (l *LWP) enterAltStackLocked() bool {
	if !l.altStack.Enabled || l.altStack.OnStack {
		return false
	}
	l.altStack.OnStack = true
	return true
}

// ExitAltStack clears the on-stack flag after a handler returns.
func (k *Kernel) ExitAltStack(l *LWP) {
	k.mu.Lock()
	l.altStack.OnStack = false
	k.mu.Unlock()
}

// EnterAltStack marks the LWP as running its handler on the alternate
// stack; reports whether the switch happened.
func (k *Kernel) EnterAltStack(l *LWP) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return l.enterAltStackLocked()
}

// CPU is one simulated processor. At most one LWP runs on a CPU at a
// time. Each CPU owns a dispatch queue of runnable LWPs placed on it
// (affinity first); an idle CPU steals from its processor-set
// siblings, so no CPU idles while its set has stealable work.
type CPU struct {
	id  int
	lwp *LWP // guarded by Kernel.mu

	// Dispatcher state; guarded by Kernel.mu.
	ps         *pset   // processor set this CPU belongs to
	runq       lwpRunq // LWPs placed on this CPU
	dispatches uint64  // LWPs dispatched onto this CPU
	steals     uint64  // LWPs this CPU stole from a sibling's queue
	migrations uint64  // dispatches whose LWP last ran elsewhere
}

// ID returns the CPU number.
func (c *CPU) ID() int { return c.id }

// ProfBuffer accumulates per-label tick counts for one LWP. Real
// SunOS samples the PC at each clock tick in LWP user time; a Go
// reproduction has no PC to sample, so the animating code labels its
// current activity and the kernel charges CPU time per label.
type ProfBuffer struct {
	mu     sync.Mutex
	Counts map[string]time.Duration
}

// NewProfBuffer returns an empty profiling buffer. Several LWPs may
// share one buffer if accumulated information is desired (paper).
func NewProfBuffer() *ProfBuffer {
	return &ProfBuffer{Counts: make(map[string]time.Duration)}
}

func (b *ProfBuffer) charge(label string, d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	b.mu.Lock()
	b.Counts[label] += d
	b.mu.Unlock()
}

// Total returns the total charged time for label.
func (b *ProfBuffer) Total(label string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Counts[label]
}
