// Package mt is the public API of the SunOS multi-thread architecture
// reproduction: a simulated multiprocessor machine running a SunOS
// 5-style kernel, UNIX processes whose threads are multiplexed on
// LWPs by the threads library, the synchronization facilities of the
// paper (mutexes, condition variables, semaphores, readers/writer
// locks — including process-shared variants placed in mapped files),
// per-thread signal masks, and the reinterpreted UNIX services
// (fork/fork1/exec/exit/wait, shared descriptor tables, /proc).
//
// # Quick start
//
//	sys := mt.NewSystem(mt.Options{NCPU: 2})
//	p, _ := sys.Spawn("hello", func(t *mt.Thread, _ any) {
//		child, _ := t.Runtime().Create(func(c *mt.Thread, _ any) {
//			// ... concurrent work ...
//		}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
//		t.Wait(child.ID())
//	}, nil, mt.ProcConfig{})
//	p.WaitExit()
//
// Thread bodies receive their *mt.Thread handle explicitly (Go has no
// hidden "current thread" register); every potentially blocking call
// takes the calling thread. Everything else follows the paper's
// Figure 4 interface.
package mt

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/core"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
	"sunosmt/internal/tsync"
	"sunosmt/internal/usync"
	"sunosmt/internal/vfs"
	"sunosmt/internal/vm"
)

// Re-exported thread types: the threads interface of the paper's
// Figure 4.
type (
	// Thread is a user-level thread.
	Thread = core.Thread
	// ThreadID identifies a thread within its process.
	ThreadID = core.ThreadID
	// Func is a thread body.
	Func = core.Func
	// CreateOpts carries thread_create's optional arguments.
	CreateOpts = core.CreateOpts
	// Runtime is the per-process threads library instance.
	Runtime = core.Runtime
	// TLSVar names a registered unshared (thread-local) variable.
	TLSVar = core.TLSVar
	// Jmpbuf is a setjmp/longjmp target.
	Jmpbuf = core.Jmpbuf
	// ThreadState is a thread's library-level state.
	ThreadState = core.ThreadState
	// TSDKey names an item of POSIX-style thread-specific data,
	// the dynamic mechanism the paper says can be built on
	// thread-local storage.
	TSDKey = core.TSDKey
)

// Thread states.
const (
	ThreadRunnable = core.ThreadRunnable
	ThreadRunning  = core.ThreadRunning
	ThreadSleeping = core.ThreadSleeping
	ThreadStopped  = core.ThreadStopped
	ThreadWaiting  = core.ThreadWaiting
	ThreadZombie   = core.ThreadZombie
)

// thread_create flags.
const (
	ThreadStop    = core.ThreadStop
	ThreadNewLWP  = core.ThreadNewLWP
	ThreadBindLWP = core.ThreadBindLWP
	ThreadWait    = core.ThreadWait
	ThreadDaemon  = core.ThreadDaemon
)

// Synchronization types (paper, "Thread synchronization").
type (
	// Mutex is a mutual exclusion lock.
	Mutex = tsync.Mutex
	// Cond is a condition variable.
	Cond = tsync.Cond
	// Sema is a counting semaphore.
	Sema = tsync.Sema
	// RWLock is a multiple-readers, single-writer lock.
	RWLock = tsync.RWLock
	// Variant selects a mutex implementation variant.
	Variant = tsync.Variant
	// LockPolicy selects a mutex lock/wake policy (adaptive, ticket,
	// MCS/CLH queue, parking-lot), per-lock via Mutex.InitPolicy or
	// per-process via ProcConfig.LockPolicy.
	LockPolicy = tsync.Policy
	// RWType selects reader or writer acquisition.
	RWType = tsync.RWType
)

// Synchronization constants.
const (
	VariantDefault    = tsync.VariantDefault
	VariantSpin       = tsync.VariantSpin
	VariantAdaptive   = tsync.VariantAdaptive
	VariantErrorCheck = tsync.VariantErrorCheck
	RWReader          = tsync.RWReader
	RWWriter          = tsync.RWWriter
)

// Mutex lock policies (see tsync.Policy).
const (
	PolicyDefault    = tsync.PolicyDefault
	PolicyAdaptive   = tsync.PolicyAdaptive
	PolicyTicket     = tsync.PolicyTicket
	PolicyQueue      = tsync.PolicyQueue
	PolicyParkingLot = tsync.PolicyParkingLot
)

// LockPolicies lists the concrete lock policies, for the chaos sweeps
// and mttrace's policy lookup.
func LockPolicies() []LockPolicy { return tsync.Policies() }

// Errors surfaced by the fallible acquisition entry points (EnterErr,
// TimedEnter, PErr, TimedP, ...): the robust-lock and timed-lock
// protocol of pthread_mutexattr_setrobust and friends.
var (
	// ErrTimedOut: a timed acquisition's deadline expired (ETIMEDOUT).
	ErrTimedOut = tsync.ErrTimedOut
	// ErrOwnerDead: the previous owner died holding the lock; the
	// caller holds it now and must repair the protected state, then
	// call MakeConsistent before releasing (EOWNERDEAD).
	ErrOwnerDead = tsync.ErrOwnerDead
	// ErrNotRecoverable: an owner-dead holder released without
	// MakeConsistent; the lock is permanently dead (ENOTRECOVERABLE).
	ErrNotRecoverable = tsync.ErrNotRecoverable
	// ErrDeadlock: the acquisition would close a wait-for cycle
	// (EDEADLK); returned by error-check mutexes at lock time.
	ErrDeadlock = tsync.ErrDeadlock
	// ErrNotShared: SharedVar or a Shared*At constructor was given an
	// address outside any MAP_SHARED mapping (EINVAL).
	ErrNotShared = errors.New("mt: address is not in a MAP_SHARED mapping")
)

// Resource-exhaustion errors. Every layer that can run out — the
// kernel's LWP rlimit, the library's thread cap, transient spawn
// faults — wraps the one ErrAgain sentinel, so callers write a single
// errors.Is(err, mt.ErrAgain) regardless of which resource was
// exhausted, exactly as EAGAIN from thr_create covers both thread and
// LWP exhaustion in SunOS.
var (
	// ErrAgain: a thread or LWP limit was reached, or a transient
	// allocation failure occurred; retry later (EAGAIN).
	ErrAgain = core.ErrAgain
	// ErrNoMem: the address-space byte limit would be exceeded
	// (ENOMEM) — from Mmap, Sbrk, or stack carving.
	ErrNoMem = vm.ErrNoMem
	// ErrProt: a load or store the mapping's protection forbids, or a
	// shared synchronization variable named in a mapping that is not
	// both readable and writable (EACCES).
	ErrProt = vm.ErrProt
	// ErrRedZone: a load or store touched a stack's red zone (the
	// guard page below the stack); MemRead/MemWrite also raise
	// SIGSEGV on the faulting thread.
	ErrRedZone = vm.ErrRedZone
)

// Deadlock detection re-exports.
type (
	// Deadlock is one detected wait-for cycle.
	Deadlock = core.Deadlock
	// DeadlockNode is one thread in a cycle.
	DeadlockNode = core.DeadlockNode
	// LockWaiter is one resolved wait-for edge.
	LockWaiter = core.LockWaiter
)

// DetectDeadlocks walks the wait-for graph of the given processes —
// thread → sync object → owning thread, following cross-process
// ownership recorded in shared variables — in one pass and returns
// every cycle. The same information is readable at /proc/<pid>/lstatus
// and via mtstat -locks.
func DetectDeadlocks(procs ...*Proc) []Deadlock {
	rts := make([]*core.Runtime, 0, len(procs))
	for _, p := range procs {
		rts = append(rts, p.RT)
	}
	return core.DetectDeadlocks(rts)
}

// PID identifies a simulated process.
type PID = sim.PID

// Signal machinery re-exports.
type (
	// Signal is a SVR4-style signal number.
	Signal = sim.Signal
	// Sigset is a set of signals.
	Sigset = sim.Sigset
	// SigHow selects mask combination for SigSetMask.
	SigHow = sim.SigHow
	// Disposition is a process-wide handler setting.
	Disposition = sim.Disposition
)

// Signal constants (subset; see internal/sim for all).
const (
	SIGHUP     = sim.SIGHUP
	SIGINT     = sim.SIGINT
	SIGILL     = sim.SIGILL
	SIGABRT    = sim.SIGABRT
	SIGFPE     = sim.SIGFPE
	SIGKILL    = sim.SIGKILL
	SIGBUS     = sim.SIGBUS
	SIGSEGV    = sim.SIGSEGV
	SIGPIPE    = sim.SIGPIPE
	SIGALRM    = sim.SIGALRM
	SIGTERM    = sim.SIGTERM
	SIGUSR1    = sim.SIGUSR1
	SIGUSR2    = sim.SIGUSR2
	SIGCHLD    = sim.SIGCHLD
	SIGIO      = sim.SIGIO
	SIGSTOP    = sim.SIGSTOP
	SIGCONT    = sim.SIGCONT
	SIGVTALRM  = sim.SIGVTALRM
	SIGPROF    = sim.SIGPROF
	SIGXCPU    = sim.SIGXCPU
	SIGWAITING = sim.SIGWAITING
	SigBlock   = sim.SigBlock
	SigUnblock = sim.SigUnblock
	SigSetMask = sim.SigSetMask
	SigDfl     = sim.SigDfl
	SigIgn     = sim.SigIgn
	SigCatch   = sim.SigCatch
)

// Options configures a System. A System is a kernel plus a file system
// and a shared-variable registry, and only the kernel has anything to
// configure, so Options is the kernel's Config: NCPU, Clock,
// TimeSlice, EventRing, SignalOnAnyBlock, LWPCreateCost,
// KernelSwitchCost, Chaos (build one with NewChaos) and FastForward.
type Options = sim.Config

// Chaos re-exports: seeded schedule exploration and fault injection.
type (
	// ChaosSource is a seeded deterministic perturbation source.
	ChaosSource = chaos.Source
	// ChaosConfig tunes per-site injection rates (per mille).
	ChaosConfig = chaos.Config
)

// NewChaos returns a chaos source with the default injection rates
// for the given seed.
func NewChaos(seed uint64) *ChaosSource {
	return chaos.New(chaos.DefaultConfig(seed))
}

// NewFaultChaos returns a chaos source that also injects resource
// exhaustion: transient LWP-spawn failures, allocation failures in the
// address space, and stack carve failures. Only safe for workloads
// that handle ErrAgain/ErrNoMem from Create and the memory calls; the
// exhaustion sweep uses it to prove failed creates unwind completely.
func NewFaultChaos(seed uint64) *ChaosSource {
	return chaos.New(chaos.FaultConfig(seed))
}

// System is one simulated machine: CPUs, kernel, file system, and the
// registry for process-shared synchronization variables.
type System struct {
	Kern *sim.Kernel
	FS   *vfs.FS
	Reg  *usync.Registry
}

// NewSystem boots a machine.
func NewSystem(o Options) *System {
	k := sim.NewKernel(o)
	return &System{Kern: k, FS: vfs.NewFS(k), Reg: usync.NewRegistry(k)}
}

// Events returns the per-CPU binary event rings (nil unless EventRing
// was set).
func (s *System) Events() *trace.Rings { return s.Kern.Rings() }

// Observability re-exports: the microstate accounting and binary
// event tracing layer.
type (
	// EventRings is the set of per-CPU binary event rings.
	EventRings = trace.Rings
	// EventRecord is one binary trace event.
	EventRecord = trace.Record
	// EventKind identifies one class of scheduler event.
	EventKind = trace.EventKind
	// Microstates is a per-thread microstate accounting snapshot.
	Microstates = core.MicrostateTimes
	// Microstate is one per-thread accounting state.
	Microstate = core.Microstate
	// LWPMicrostates is a per-LWP microstate accounting snapshot.
	LWPMicrostates = sim.LWPMicrostates
)

// Event kinds recorded in the rings.
const (
	EvDispatch    = trace.EvDispatch
	EvPreempt     = trace.EvPreempt
	EvWakeup      = trace.EvWakeup
	EvMigrate     = trace.EvMigrate
	EvSigwaiting  = trace.EvSigwaiting
	EvLockBlock   = trace.EvLockBlock
	EvThreadRun   = trace.EvThreadRun
	EvThreadPark  = trace.EvThreadPark
	EvSteal       = trace.EvSteal
	EvBalance     = trace.EvBalance
	EvFastForward = trace.EvFastForward
)

// Time-travel re-exports: schedule journals, replay, and trace export.
type (
	// ScheduleJournal is one run's serialized scheduling history:
	// every chaos decision plus the resulting ring events.
	ScheduleJournal = trace.Journal
	// ScheduleDecision is one recorded chaos decision.
	ScheduleDecision = trace.Decision
	// ReplayDivergence pinpoints where a replayed run left the
	// recorded schedule.
	ReplayDivergence = chaos.Divergence
	// FastForwardClock is the virtual fast-forward clock (see
	// Options.FastForward).
	FastForwardClock = ktime.FastForward
)

// ReadJournal parses a serialized schedule journal.
func ReadJournal(r io.Reader) (*ScheduleJournal, error) { return trace.ReadJournal(r) }

// ReadJournalFile parses a schedule journal file.
func ReadJournalFile(path string) (*ScheduleJournal, error) { return trace.ReadJournalFile(path) }

// NewReplayChaos returns a chaos source that re-issues the journal's
// recorded decision stream; pass it as Options.Chaos to drive a fresh
// run back down the recorded schedule. Source.Divergence reports the
// first point where the live run stopped matching the recording.
func NewReplayChaos(j *ScheduleJournal) (*ChaosSource, error) { return chaos.NewReplay(j) }

// WritePerfetto renders a ring snapshot as Chrome trace JSON for
// ui.perfetto.dev or chrome://tracing.
func WritePerfetto(w io.Writer, recs []EventRecord) error { return trace.WritePerfetto(w, recs) }

// FirstEventDivergence compares two event sequences (ignoring
// timestamps and sequence numbers) and returns the index of the first
// mismatch, or -1 when the schedules are identical.
func FirstEventDivergence(a, b []EventRecord) int { return trace.FirstEventDivergence(a, b) }

// Schedule snapshots the system's schedule journal: the chaos
// decision stream recorded so far (enable with
// Options.Chaos.StartRecording before running the workload) plus the
// retained ring events. Write it out with ScheduleJournal.WriteFile
// and replay it with NewReplayChaos.
func (s *System) Schedule() *ScheduleJournal {
	j := s.Kern.Chaos().Schedule()
	if rings := s.Kern.Rings(); rings != nil {
		j.Events, _ = rings.Snapshot()
	}
	return j
}

// FastForward returns the system's fast-forward clock, or nil when
// Options.FastForward was not set.
func (s *System) FastForward() *ktime.FastForward { return s.Kern.FastForward() }

// Dispatcher re-exports: scheduling classes, processor sets, and the
// per-CPU dispatch-queue statistics.
type (
	// Class is a kernel scheduling class (priocntl).
	Class = sim.Class
	// PsetID names a processor set (psrset).
	PsetID = sim.PsetID
	// PsetInfo is a snapshot of one processor set.
	PsetInfo = sim.PsetInfo
	// CPUStat is one CPU's dispatch-queue snapshot and counters.
	CPUStat = sim.CPUStat
)

// Scheduling classes and the default processor set.
const (
	ClassTS     = sim.ClassTS
	ClassSYS    = sim.ClassSYS
	ClassRT     = sim.ClassRT
	ClassGang   = sim.ClassGang
	PsetDefault = sim.PsetDefault
)

// PsetCreate creates an empty processor set (pset_create).
func (s *System) PsetCreate() PsetID { return s.Kern.PsetCreate() }

// PsetDestroy destroys a user set; its CPUs return to the default set
// and its bound LWPs are unbound (pset_destroy).
func (s *System) PsetDestroy(id PsetID) error { return s.Kern.PsetDestroy(id) }

// PsetAssign moves a CPU into the set; PsetDefault moves it back
// (pset_assign).
func (s *System) PsetAssign(id PsetID, cpu int) error { return s.Kern.PsetAssign(id, cpu) }

// Psets snapshots all processor sets.
func (s *System) Psets() []PsetInfo { return s.Kern.Psets() }

// PsetBind confines a bound thread's LWP to the processor set;
// PsetDefault removes the binding (pset_bind). The thread must be
// bound to an LWP (ThreadBindLWP or ThreadNewLWP): an unbound thread
// migrates across the whole pool, so the binding would not follow it.
func (s *System) PsetBind(t *Thread, id PsetID) error {
	l := t.BoundLWP()
	if l == nil {
		return core.ErrNotBound
	}
	return s.Kern.PsetBind(l, id)
}

// BindCPU hard-binds a bound thread's LWP to one CPU (processor_bind).
func (s *System) BindCPU(t *Thread, cpu int) error {
	l := t.BoundLWP()
	if l == nil {
		return core.ErrNotBound
	}
	return s.Kern.BindCPU(l, cpu)
}

// Priocntl moves a bound thread's LWP to a scheduling class at a
// user priority (priocntl): ClassTS ages with CPU usage, ClassRT and
// ClassSYS are fixed. Like PsetBind and BindCPU it requires a thread
// bound to an LWP; unbound threads take their priority from the
// library scheduler (SetPriority).
func (s *System) Priocntl(t *Thread, class Class, prio int) error {
	l := t.BoundLWP()
	if l == nil {
		return core.ErrNotBound
	}
	return s.Kern.Priocntl(l, class, prio)
}

// SchedStats snapshots the kernel dispatcher: one row per CPU with its
// processor set, queue depth, and dispatch/steal/migration counters.
func (s *System) SchedStats() []CPUStat { return s.Kern.SchedStats() }

// DispatchBench measures the library run-queue layer in isolation:
// workers goroutines pass tokens through one run queue under its lock,
// iters push+pop pairs per worker. nshards is ignored (the queue is no
// longer sharded); the parameter stays for the frozen bench/ module.
func DispatchBench(nshards, workers, iters int) time.Duration {
	return core.DispatchBench(nshards, workers, iters)
}

// Thread microstates.
const (
	MSUser    = core.MSUser
	MSRunq    = core.MSRunq
	MSSleep   = core.MSSleep
	MSLock    = core.MSLock
	MSStopped = core.MSStopped
)

// Clock returns the system clock.
func (s *System) Clock() ktime.Clock { return s.Kern.Clock() }

// ProcConfig configures a spawned process.
type ProcConfig struct {
	// MaxAutoLWPs caps SIGWAITING-driven LWP pool growth.
	MaxAutoLWPs int
	// DisableSigwaiting disables automatic pool growth (ablation).
	DisableSigwaiting bool
	// DefaultStackSize overrides the default thread stack size.
	DefaultStackSize int
	// LWPAgeTime, when positive, ages idle pool LWPs out of the
	// unbound pool after that much idle time — the paper's answer to
	// pools sized for a burst that has passed. Zero disables aging.
	LWPAgeTime time.Duration
	// NoPriorityInheritance disables turnstile priority inheritance
	// (ablation: demonstrates unbounded priority inversion).
	NoPriorityInheritance bool
	// MaxThreads caps live threads in the process; Create fails with
	// ErrAgain at the cap, the admission-control watermark of a
	// server that would rather shed a request than thrash. Zero is
	// unlimited. Fork children and exec images keep the cap;
	// Runtime.SetMaxThreads changes it at run time.
	MaxThreads int
	// LWPLimit is the process's LWP rlimit: kernel LWP creation
	// (bound threads, pool growth, SIGWAITING) fails with ErrAgain
	// once this many LWPs are live. Zero is unlimited.
	LWPLimit int
	// ASLimitBytes caps the mapped (reserved) bytes of the address
	// space; Mmap, Sbrk and stack carving fail with ErrNoMem past it.
	// Zero is unlimited.
	ASLimitBytes int64
	// CommitLimitBytes caps the committed bytes of the address space:
	// first-touch page commits (including lazily-committed thread
	// stacks) fail with ErrNoMem past it. The RSS-style rlimit, as
	// opposed to ASLimitBytes's reservation rlimit. Zero is unlimited.
	CommitLimitBytes int64
	// WatchdogDeadline sets the deadman watchdog's deadline for
	// flagging LWPs stuck on-CPU and threads blocked too long
	// (/proc/<pid>/health, mtstat -health). Zero selects 1s.
	WatchdogDeadline time.Duration
	// LockPolicy is the process-default mutex lock/wake policy
	// (adaptive, ticket, queue, parkinglot); PolicyDefault is
	// adaptive. Individual locks override with Mutex.InitPolicy. The
	// per-process ablation knob beside NoPriorityInheritance.
	LockPolicy LockPolicy
}

// Proc is a running UNIX process: kernel process + address space +
// descriptor table + threads runtime.
type Proc struct {
	Sys *System
	RT  *core.Runtime
	PF  *vfs.ProcFiles
	AS  *vm.AddressSpace

	proc *sim.Process
	cfg  ProcConfig // library configuration; fork children and exec images keep it

	// shared holds the process's handles on shared synchronization
	// variables by virtual address, resolved while the address space's
	// generation was sharedGen (sharedAt).
	sharedMu  sync.Mutex
	sharedGen uint64
	shared    map[int64]any
}

// Spawn creates a process whose main thread runs main(arg).
func (s *System) Spawn(name string, main Func, arg any, cfg ProcConfig) (*Proc, error) {
	kp := s.Kern.NewProcess(name, nil)
	as := vm.New(kp.AddFault)
	kp.Mem = as
	// The rlimits live in the kernel process and the address space,
	// which fork duplicates with the values then in force; only a
	// fresh process takes them from its configuration.
	if cfg.LWPLimit > 0 {
		kp.SetLWPLimit(cfg.LWPLimit)
	}
	if cfg.ASLimitBytes > 0 {
		as.SetLimit(cfg.ASLimitBytes)
	}
	if cfg.CommitLimitBytes > 0 {
		as.SetCommitLimit(cfg.CommitLimitBytes)
	}
	return s.buildProc(kp, main, arg, cfg)
}

// buildProc wraps a kernel process that already has its address space
// (fresh from Spawn, or the parent's copy from fork) in a Proc and
// starts its threads library.
func (s *System) buildProc(kp *sim.Process, main Func, arg any, cfg ProcConfig) (*Proc, error) {
	p := &Proc{Sys: s, proc: kp, cfg: cfg, AS: kp.Mem.(*vm.AddressSpace)}
	if kp.Files == nil {
		p.PF = vfs.NewProcFiles(s.FS, kp)
	} else {
		p.PF = vfs.Files(kp)
	}
	p.AS.SetChaos(s.Kern.Chaos())
	p.RT = core.NewRuntime(s.Kern, kp, p.runtimeConfig(nil))
	// errno is the canonical unshared variable: register it before
	// the first thread starts, as the run-time linker would.
	// Thread.Errno uses a dedicated slot; this models the TLS the C
	// library would claim. Registration cannot fail before Start.
	_, _ = p.RT.RegisterUnshared(8)
	if _, err := p.RT.Start(main, arg); err != nil {
		return nil, err
	}
	return p, nil
}

// runtimeConfig is the one place a threads-library configuration is
// built from the process's ProcConfig: for the first image, for a
// fork/fork1 child, and for the image exec builds on the surviving
// LWP (initial), so every limit and policy, and the address space the
// stacks are carved from, survive all three.
func (p *Proc) runtimeConfig(initial *sim.LWP) core.Config {
	return core.Config{
		MaxAutoLWPs:           p.cfg.MaxAutoLWPs,
		DisableSigwaiting:     p.cfg.DisableSigwaiting,
		DefaultStackSize:      p.cfg.DefaultStackSize,
		LWPAgeTime:            p.cfg.LWPAgeTime,
		NoPriorityInheritance: p.cfg.NoPriorityInheritance,
		MaxThreads:            p.cfg.MaxThreads,
		WatchdogDeadline:      p.cfg.WatchdogDeadline,
		LockPolicy:            int(p.cfg.LockPolicy),
		InitialLWP:            initial,
		StackMem:              p.AS,
	}
}

// Deadman-watchdog re-exports (see internal/core/health.go).
type (
	// HealthReport is one watchdog pass over a process.
	HealthReport = core.HealthReport
	// LWPHealth is one LWP flagged stuck on-CPU.
	LWPHealth = core.LWPHealth
	// ThreadHealth is one thread flagged blocked past the deadline.
	ThreadHealth = core.ThreadHealth
)

// Health runs one deadman-watchdog pass over the process: LWPs that
// have held a CPU continuously past the deadline and threads blocked
// or sleeping past it. deadline <= 0 selects ProcConfig's
// WatchdogDeadline (default 1s). The same report is readable at
// /proc/<pid>/health and printed by mtstat -health.
func (p *Proc) Health(deadline time.Duration) HealthReport {
	return p.RT.Health(deadline)
}

// Process exposes the kernel process.
func (p *Proc) Process() *sim.Process { return p.proc }

// PID returns the process id.
func (p *Proc) PID() sim.PID { return p.proc.PID() }

// WaitExit blocks until the process has fully exited and returns its
// status and killing signal (if any). This is the host-side Wait; for
// a parent process waiting for a child from within the simulation use
// Proc.WaitChild.
func (p *Proc) WaitExit() (int, Signal) {
	<-p.RT.Exited()
	return p.proc.ExitStatus()
}

// Kill posts a signal to the process, like kill(2) from outside.
func (p *Proc) Kill(sig Signal) error {
	return p.Sys.Kern.PostSignal(p.proc, sig)
}

// SharedVar returns the process-shared synchronization variable for
// the mapped object identity at the given virtual address in this
// process's address space. Use it with the InitShared initializers:
//
//	var mu mt.Mutex
//	mu.InitShared(p.SharedVar(t, va))
//
// va must lie in a MAP_SHARED mapping (ErrNotShared otherwise):
// private memory is copied at fork, so a variable in it would quietly
// stop excluding the child. The mapping must be readable and writable
// (ErrProt otherwise), since operating the variable stores into it.
func (p *Proc) SharedVar(t *Thread, va int64) (*usync.Var, error) {
	obj, off, flags, err := p.AS.Resolve(va)
	if err != nil {
		return nil, err
	}
	if flags&vm.MapShared == 0 {
		return nil, fmt.Errorf("%w: va %#x", ErrNotShared, va)
	}
	return p.Sys.Reg.Var(obj, off), nil
}
