package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// PID identifies a process system-wide.
type PID int

// ProcState is the lifecycle state of a process.
type ProcState int

// Process states.
const (
	ProcRunning ProcState = iota
	ProcStopped
	ProcZombie
	ProcDead // reaped
)

// String implements fmt.Stringer.
func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcStopped:
		return "stopped"
	case ProcZombie:
		return "zombie"
	case ProcDead:
		return "dead"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Rlimit is a soft/hard resource limit pair.
type Rlimit struct {
	Soft, Hard time.Duration
}

// RlimitInfinity marks an unlimited resource.
const RlimitInfinity = time.Duration(1<<63 - 1)

// Credentials are the per-process user and group IDs. As the paper
// notes there is only one set per process; if one thread changes them
// it is changed for all, and the kernel samples them atomically once
// per system call.
type Credentials struct {
	UID, GID int
}

// Process is the kernel's view of a UNIX process: an address space
// and a set of LWPs that share it, plus the shared state (fd table,
// working directory, credentials, signal dispositions) that the paper
// enumerates as shared among all threads.
type Process struct {
	pid    PID
	name   string
	kern   *Kernel
	parent *Process

	// Extension slots populated by the layers above the kernel
	// (internal/vfs sets Files, internal/vm sets Mem). The kernel
	// itself never interprets them; fork hooks copy them.
	Files any
	Mem   any

	// Everything below is guarded by Kernel.mu.

	lwps     map[LWPID]*LWP
	nextLWP  LWPID
	liveLWPs int
	// Counters driving SIGWAITING: the signal is sent when every
	// live, non-sigwait LWP is blocked in an indefinite wait.
	indefSleepers int
	sigwaiters    int
	// sigwaitingOn is the edge trigger (no repost until the state
	// changes): set when the signal is posted, cleared by any wake or
	// new LWP. Written under Kernel.mu; the threads library loads it
	// without (AllBlocked) after queueing a thread no LWP is idle for.
	sigwaitingOn atomic.Bool
	// sleeperPosts is set while SleepIf commits an indefinite sleep:
	// a SIGWAITING posted meanwhile only sets hookDue, and the
	// sleeping LWP runs the hook itself once it has dropped the lock.
	sleeperPosts, hookDue bool

	state        ProcState
	dying        bool
	execing      bool
	execSurvivor *LWP // the LWP performing exec; spared from unwind
	exitStatus   int
	killSig      Signal // signal that terminated the process, if any
	dumpedCore   bool
	abortMsg     string // panic message when Abort killed the process

	actions     [NSIG]sigaction
	pendingProc Sigset

	children map[PID]*Process
	zombies  []*Process
	waitq    WaitQ // parents sleep here in WaitChild

	creds Credentials
	cwd   string

	cpuLimit   Rlimit
	lwpLimit   int // max live LWPs; 0 is unlimited
	xcpuSent   bool
	childUser  time.Duration
	childSys   time.Duration
	deadUser   time.Duration // usage folded in from exited LWPs
	deadSys    time.Duration
	minorFault int64
	majorFault int64

	// Real-time interval timer: one per process (paper: "There is
	// only one real-time interval timer per process").
	rtimer *itimer

	// Hook the threads library registers so the kernel can notify
	// it; invoked with no kernel locks held.
	sigwaitingHook func()

	exitedCh chan struct{}
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// Name returns the process's descriptive name (comm).
func (p *Process) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kern }

// Parent returns the parent process, or nil for the initial process.
func (p *Process) Parent() *Process { return p.parent }

// State returns the process lifecycle state.
func (p *Process) State() ProcState {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.state
}

// Dying reports whether the process has begun involuntary exit. The
// threads library checks this to unwind user-level threads that are
// parked outside the kernel's view.
func (p *Process) Dying() bool {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.dying
}

// Exited returns a channel closed when the process has fully exited
// (all LWPs gone).
func (p *Process) Exited() <-chan struct{} { return p.exitedCh }

// ExitStatus returns the exit status and the signal (if any) that
// terminated the process. Valid once Exited is closed.
func (p *Process) ExitStatus() (status int, sig Signal) {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.exitStatus, p.killSig
}

// DumpedCore reports whether the terminating signal's default action
// dumped core. Valid once Exited is closed.
func (p *Process) DumpedCore() bool {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.dumpedCore
}

// AbortMessage returns the panic message recorded when Kernel.Abort
// killed the process ("" when the process did not die by abort).
func (p *Process) AbortMessage() string {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.abortMsg
}

// LWPs returns a snapshot of the process's non-zombie LWPs.
func (p *Process) LWPs() []*LWP {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	out := make([]*LWP, 0, len(p.lwps))
	for _, l := range p.lwps {
		if l.state != LWPZombie {
			out = append(out, l)
		}
	}
	return out
}

// NumLWPs returns the number of live LWPs.
func (p *Process) NumLWPs() int {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.liveLWPs
}

// Credentials returns the process credentials, sampled atomically.
func (p *Process) Credentials() Credentials {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.creds
}

// SetCredentials replaces the process credentials. The change is
// process-wide: it affects every thread, as the paper warns.
func (p *Process) SetCredentials(c Credentials) {
	p.kern.mu.Lock()
	p.creds = c
	p.kern.mu.Unlock()
}

// Cwd returns the working directory. There is only one per process.
func (p *Process) Cwd() string {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.cwd
}

// Chdir changes the working directory for every thread in the process.
func (p *Process) Chdir(dir string) {
	p.kern.mu.Lock()
	p.cwd = dir
	p.kern.mu.Unlock()
}

// SetCPULimit installs the process CPU rlimit. When the summed CPU
// usage of all LWPs exceeds the soft limit, the LWP that exceeded it
// is sent SIGXCPU (paper, "Resource usage").
func (p *Process) SetCPULimit(lim Rlimit) {
	p.kern.mu.Lock()
	p.cpuLimit = lim
	p.xcpuSent = false
	p.postAllLocked()
	p.kern.mu.Unlock()
}

// SetLWPLimit installs the process's max-LWP rlimit: NewLWP fails
// with ErrAgain once the process has n live LWPs. Zero removes the
// limit. Like the CPU rlimit it is inherited across fork. Lowering
// the limit below the current LWP count never kills LWPs; it only
// refuses new ones, exactly as setrlimit does.
func (p *Process) SetLWPLimit(n int) {
	p.kern.mu.Lock()
	p.lwpLimit = n
	p.kern.mu.Unlock()
}

// LWPLimit returns the max-LWP rlimit (0 when unlimited).
func (p *Process) LWPLimit() int {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.lwpLimit
}

// Rusage is the aggregated resource usage of a process: the sum of
// the usage of all its LWPs (paper: available via getrusage()).
type Rusage struct {
	UserTime    time.Duration
	SysTime     time.Duration
	ChildUser   time.Duration
	ChildSys    time.Duration
	MinorFaults int64
	MajorFaults int64
	LiveLWPs    int
}

// Getrusage sums resource usage over all LWPs in the process,
// including exited ones (their usage is folded into the totals when
// they exit).
func (p *Process) Getrusage() Rusage {
	p.kern.mu.Lock()
	defer p.kern.mu.Unlock()
	return p.rusageLocked()
}

func (p *Process) rusageLocked() Rusage {
	r := Rusage{
		ChildUser:   p.childUser,
		ChildSys:    p.childSys,
		MinorFaults: p.minorFault,
		MajorFaults: p.majorFault,
		LiveLWPs:    p.liveLWPs,
		UserTime:    p.deadUser,
		SysTime:     p.deadSys,
	}
	for _, l := range p.lwps {
		p.kern.settleLocked(l)
		r.UserTime += l.userTime
		r.SysTime += l.sysTime
	}
	return r
}

// postAllLocked makes the next checkpoint of every LWP of the process
// take k.mu (see LWP.slow): what was posted concerns them all.
func (p *Process) postAllLocked() {
	for _, l := range p.lwps {
		l.slow.Store(true)
	}
}

// AllBlocked reports whether the process is in an all-blocked episode:
// SIGWAITING was posted and no LWP has been woken or created since. It
// takes no lock. A waker that queued a thread and found no idle LWP for
// it loads it after queueing; the kernel stores it before the hook
// reads the run queue, so one of the two sees the other's write.
func (p *Process) AllBlocked() bool { return p.sigwaitingOn.Load() }

// clearAllBlocked ends the all-blocked episode; it stores only a
// change. Caller holds Kernel.mu.
func (p *Process) clearAllBlocked() {
	if p.sigwaitingOn.Load() {
		p.sigwaitingOn.Store(false)
	}
}

// AddFault charges page faults to the process (called by internal/vm).
func (p *Process) AddFault(major bool) {
	p.kern.mu.Lock()
	if major {
		p.majorFault++
	} else {
		p.minorFault++
	}
	p.kern.mu.Unlock()
}

// SetSigwaitingHook registers fn to run each time the kernel posts
// SIGWAITING to this process, with no kernel lock held: on the LWP
// whose sleep left the process all-blocked, or on a fresh goroutine
// for a post from anywhere else. The threads library uses it to grow
// the LWP pool; it complements, not replaces, normal delivery of
// SIGWAITING to a handler.
func (p *Process) SetSigwaitingHook(fn func()) {
	p.kern.mu.Lock()
	p.sigwaitingHook = fn
	p.kern.mu.Unlock()
}
