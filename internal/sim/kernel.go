// Package sim is the simulated SunOS 5 kernel substrate underneath
// the threads library.
//
// The paper's threads are multiplexed by a user-level library onto
// kernel-supported LWPs, which the kernel dispatches onto CPUs. Go
// gives us no real kernel to extend, so this package *is* that
// kernel: it owns a fixed set of simulated CPUs and dispatches LWPs
// onto them by scheduling class and priority; it provides kernel
// sleep queues, signals (traps and interrupts, per-LWP masks, default
// actions, SIGWAITING), per-LWP interval timers and profiling,
// resource usage and limits, and fork/fork1/exec/exit/wait.
//
// # Animation model
//
// An LWP is a kernel data structure, not a goroutine. Whichever
// goroutine currently animates an LWP (the threads library's
// dispatcher between threads; a thread goroutine while the thread
// runs and during its system calls) drives the LWP through this
// package's methods. The rule enforced throughout: an animator may
// execute "user code" only while its LWP holds a CPU grant, and every
// blocking kernel service releases the CPU for the duration of the
// block. This reproduces the paper's contract — at most NCPU LWPs
// make progress at once, each LWP blocks in the kernel independently
// — without fighting the Go runtime for real context switching.
//
// # Locking
//
// A single kernel lock (Kernel.mu) guards all scheduling, signal and
// process state, exactly like a giant kernel lock. Methods with the
// Locked suffix require it. The kernel never calls user code with mu
// held; hooks run on fresh goroutines.
//
// # Unwinding
//
// Involuntary process termination (kill -9, default signal actions,
// Exit from another LWP, exec) cannot asynchronously stop a running
// goroutine, so the kernel panics with *Unwind at the next kernel
// entry of each affected LWP. The threads library recovers the panic
// and retires the LWP. This is the cooperative analogue of the kernel
// yanking an LWP out of the trap handler.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
	"sunosmt/internal/trace"
)

// ErrAgain is the kernel's EAGAIN: a resource limit (the max-LWP
// rlimit, or a chaos-injected transient spawn failure) refused an
// allocation that may succeed later. _lwp_create returns it when "the
// limit on LWPs is exhausted"; callers are expected to back off and
// retry or degrade, never to crash.
var ErrAgain = errors.New("sim: resource temporarily unavailable (EAGAIN)")

// Config configures a Kernel. mt.Options is an alias of this type:
// booting a System adds a file system and a shared-variable registry
// to a kernel and configures nothing itself.
type Config struct {
	// NCPU is the number of simulated processors (default 1).
	NCPU int
	// Clock drives time; nil selects the real clock, or the
	// fast-forward clock when FastForward is set.
	Clock ktime.Clock
	// TimeSlice is the timeshare scheduling quantum checked at
	// preemption points; 0 disables time slicing.
	TimeSlice time.Duration
	// EventRing enables the per-CPU binary event rings with the given
	// per-CPU capacity (rounded up to a power of two, minimum 64):
	// dispatch, preemption, wakeup, migration, SIGWAITING and
	// fast-forward jumps are recorded there. Zero disables event
	// tracing; the recording sites then cost nothing.
	EventRing int
	// SignalOnAnyBlock makes the kernel treat every kernel sleep as
	// an indefinite wait for SIGWAITING purposes. This is the
	// "send signals on faster events" experiment the paper proposes
	// as future work (and the scheduler-activations comparison):
	// the library learns about every blocking, not only indefinite
	// waits.
	SignalOnAnyBlock bool
	// LWPCreateCost models the kernel path length of creating an
	// LWP (kernel stack allocation, scheduler registration) that a
	// goroutine spawn does not capture; the creator busy-waits this
	// long inside the NewLWP call. Negative disables; zero selects
	// the default (20us), calibrated so the bound/unbound creation
	// ratio of the paper's Figure 5 is reproduced in shape.
	LWPCreateCost time.Duration
	// KernelSwitchCost models the trap entry plus LWP context
	// switch a kernel block performs, which a Go channel/cond wake
	// does not capture; the blocking LWP busy-waits this long on
	// entry to Sleep and Park. Negative disables; zero selects the
	// default (1.5us), calibrated so bound-thread synchronization
	// costs a multiple of user-level unbound synchronization, as in
	// the paper's Figure 6.
	KernelSwitchCost time.Duration
	// Chaos, if non-nil, deterministically perturbs the system from
	// its seed: forced preemptions at preemption points, dispatch
	// and run-queue pick reordering, kernel wakeup reordering,
	// spurious wakeups at library park sites, injected EINTR on
	// interruptible kernel sleeps, early SIGWAITING, and timer jitter
	// (the clock is wrapped in ktime.Jittered). Same seed, same
	// machine, same workload structure — same decision sequence;
	// Chaos.StartRecording keeps it for replay.
	Chaos *chaos.Source
	// FastForward selects the virtual fast-forward clock (ignored
	// when Clock is set): time tracks the wall clock while any LWP
	// can run, but the moment every LWP is sleeping or parked with a
	// timer pending, the clock jumps straight to the next deadline and
	// fires it. A caller-supplied fast-forward Clock is detected and
	// driven the same way. Chaos timer jitter composes: jitter
	// perturbs deadlines as they are armed, and the jump honors the
	// jittered order.
	FastForward bool
}

// Default simulated kernel path lengths (see Config).
const (
	defaultLWPCreateCost    = 20 * time.Microsecond
	defaultKernelSwitchCost = 1500 * time.Nanosecond
)

// balancePeriod is how often the dispatcher's periodic balancer evens
// out per-CPU run-queue depths within each processor set (and
// re-levels queued timeshare LWPs whose decayed usage moved their
// priority). The balancer runs at scheduling points against the
// kernel's clock, never on its own goroutine, so balanced schedules
// stay seed-replayable.
const balancePeriod = 10 * time.Millisecond

// spinFor models a fixed kernel path length by burning host CPU.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < d; {
	}
}

// Kernel is the simulated kernel.
type Kernel struct {
	mu    sync.Mutex
	cfg   Config
	clock ktime.Clock
	ff    *ktime.FastForward // non-nil when the clock fast-forwards
	rings *trace.Rings
	chaos *chaos.Source

	// nactive counts LWPs in a schedulable state (embryo, runnable,
	// on-CPU). When it drops to zero every LWP is blocked waiting on
	// an event or a timer, and the fast-forward clock is kicked to
	// leap over the idle time. Maintained by setLWPStateLocked.
	nactive int

	cpus    []*CPU
	procs   map[PID]*Process
	nextPID PID

	// sleepq is where SleepFor's sleepers wait; nothing wakes it.
	sleepq WaitQ

	// Dispatcher state (per-CPU queues live on the CPUs; see
	// dispq.go). nrunnable and gangQueued are the global counts the
	// hot paths consult instead of scanning queues.
	psets        map[PsetID]*pset
	nextPset     PsetID
	nrunnable    int // queued LWPs across all CPUs
	gangQueued   int // queued gang members (enables the gang slow path)
	lastBalance  time.Duration
	balanceMoves uint64

	// forkHooks run (in registration order, with mu released) when
	// a process is duplicated; layers above the kernel use them to
	// copy fd tables and address spaces.
	forkHooks []func(parent, child *Process)
	// deathHooks run (on fresh goroutines, with mu released) once
	// per process death — voluntary exit or kill alike. The shared
	// synchronization registry uses them to sweep locks the dead
	// process owned and mark them OWNERDEAD.
	deathHooks []func(p *Process)
}

// Unwind is the panic value used to tear an animator out of a dead or
// exec-ing process. The threads library recovers it and calls ExitLWP.
type Unwind struct {
	Proc   *Process
	Reason string
}

// Error implements error so an un-recovered Unwind reads well.
func (u *Unwind) Error() string {
	return fmt.Sprintf("sim: unwind of process %d: %s", u.Proc.pid, u.Reason)
}

// IsUnwind reports whether a recovered panic value is a kernel unwind.
func IsUnwind(r any) bool {
	_, ok := r.(*Unwind)
	return ok
}

// NewKernel boots a kernel with the given configuration. It is the
// one place that picks the clock — the caller's, fast-forward, or
// real, wrapped in chaos timer jitter when a chaos source is
// configured — and builds the event rings on it.
func NewKernel(cfg Config) *Kernel {
	if cfg.NCPU <= 0 {
		cfg.NCPU = 1
	}
	if cfg.Clock == nil {
		if cfg.FastForward {
			cfg.Clock = ktime.NewFastForward()
		} else {
			cfg.Clock = ktime.NewReal()
		}
	}
	if cfg.Chaos.Enabled() {
		cfg.Clock = ktime.NewJittered(cfg.Clock, cfg.Chaos.Jitter)
	}
	switch {
	case cfg.LWPCreateCost < 0:
		cfg.LWPCreateCost = 0
	case cfg.LWPCreateCost == 0:
		cfg.LWPCreateCost = defaultLWPCreateCost
	}
	switch {
	case cfg.KernelSwitchCost < 0:
		cfg.KernelSwitchCost = 0
	case cfg.KernelSwitchCost == 0:
		cfg.KernelSwitchCost = defaultKernelSwitchCost
	}
	k := &Kernel{
		cfg:   cfg,
		clock: cfg.Clock,
		chaos: cfg.Chaos,
		procs: make(map[PID]*Process),
		psets: make(map[PsetID]*pset),

		sleepq: WaitQ{name: "nanosleep"},
	}
	if cfg.EventRing > 0 {
		k.rings = trace.NewRings(cfg.NCPU, cfg.EventRing, k.clock.Now)
	}
	def := &pset{id: PsetDefault}
	k.psets[PsetDefault] = def
	for i := 0; i < cfg.NCPU; i++ {
		c := &CPU{id: i, ps: def}
		k.cpus = append(k.cpus, c)
		def.cpus = append(def.cpus, c)
	}
	if ff := ktime.FastForwardOf(k.clock); ff != nil {
		k.ff = ff
		ff.SetIdle(k.allIdle)
		if rings := k.rings; rings != nil {
			// Stamp every jump into the rings so a trace of a
			// fast-forwarded run shows where virtual time leapt.
			ff.SetOnJump(func(from, to time.Duration) {
				rings.Record(-1, trace.EvFastForward, 0, 0, 0, uint64(to-from))
			})
		}
	}
	return k
}

// allIdle is the fast-forward clock's idle predicate: true when no
// LWP can make progress without a timer firing or external input.
// Besides the schedulable count it checks for LWPs already woken but
// not yet re-run by their animator goroutine — jumping in that window
// would leap over time the woken LWP is about to use.
func (k *Kernel) allIdle() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.nactive > 0 {
		return false
	}
	for _, p := range k.procs {
		for _, l := range p.lwps {
			if l.woken {
				switch l.state {
				case LWPSleeping, LWPParked, LWPSigWait:
					return false
				}
			}
		}
	}
	return true
}

// FastForward returns the kernel's fast-forward clock, or nil when
// the configured clock does not fast-forward.
func (k *Kernel) FastForward() *ktime.FastForward { return k.ff }

// Clock returns the kernel's clock.
func (k *Kernel) Clock() ktime.Clock { return k.clock }

// NCPU returns the number of simulated CPUs.
func (k *Kernel) NCPU() int { return len(k.cpus) }

// Rings returns the per-CPU event rings (nil when event tracing is
// off).
func (k *Kernel) Rings() *trace.Rings { return k.rings }

// Chaos returns the kernel's chaos source (nil when not configured).
// The threads library and synchronization layer share it so every
// perturbation draws from one deterministic decision stream.
func (k *Kernel) Chaos() *chaos.Source { return k.chaos }

// AddForkHook registers fn to run whenever a process forks. Hooks run
// after the kernel-side duplication, without kernel locks held.
func (k *Kernel) AddForkHook(fn func(parent, child *Process)) {
	k.mu.Lock()
	k.forkHooks = append(k.forkHooks, fn)
	k.mu.Unlock()
}

// AddDeathHook registers fn to run (on a fresh goroutine, no kernel
// locks held) each time a process begins to die, whether by voluntary
// exit or by signal. Exactly one invocation per process death.
func (k *Kernel) AddDeathHook(fn func(p *Process)) {
	k.mu.Lock()
	k.deathHooks = append(k.deathHooks, fn)
	k.mu.Unlock()
}

// NewProcess creates a process with no LWPs. parent may be nil for
// the initial process.
func (k *Kernel) NewProcess(name string, parent *Process) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.newProcessLocked(name, parent)
}

func (k *Kernel) newProcessLocked(name string, parent *Process) *Process {
	k.nextPID++
	p := &Process{
		pid:      k.nextPID,
		name:     name,
		kern:     k,
		parent:   parent,
		lwps:     make(map[LWPID]*LWP),
		children: make(map[PID]*Process),
		cwd:      "/",
		cpuLimit: Rlimit{Soft: RlimitInfinity, Hard: RlimitInfinity},
		exitedCh: make(chan struct{}),
	}
	p.waitq.name = fmt.Sprintf("wait:%d", p.pid)
	if parent != nil {
		p.cwd = parent.cwd
		p.creds = parent.creds
		p.actions = parent.actions
		p.cpuLimit = parent.cpuLimit
		p.lwpLimit = parent.lwpLimit
		parent.children[p.pid] = p
	}
	k.procs[p.pid] = p
	return p
}

// Processes returns a snapshot of all non-reaped processes.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

// FindProcess returns the process with the given pid, if present.
func (k *Kernel) FindProcess(pid PID) (*Process, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	return p, ok
}

// NewLWP creates an LWP in the process. The LWP does not run until a
// goroutine animates it by calling Start. Creating an LWP is the
// expensive kernel operation that makes bound-thread creation ~40x
// slower than unbound creation in the paper's Figure 5; the kernel
// charges syscall time to the caller (curLWP, may be nil during
// process setup).
func (k *Kernel) NewLWP(p *Process, class Class, prio int) (*LWP, error) {
	spinFor(k.cfg.LWPCreateCost) // simulated kernel path length
	k.mu.Lock()
	defer k.mu.Unlock()
	if p.dying || p.state == ProcZombie || p.state == ProcDead {
		return nil, fmt.Errorf("sim: process %d is exiting", p.pid)
	}
	if p.lwpLimit > 0 && p.liveLWPs >= p.lwpLimit {
		return nil, fmt.Errorf("pid %d at LWP rlimit %d: %w", p.pid, p.lwpLimit, ErrAgain)
	}
	if k.chaos.LWPSpawnFail() {
		return nil, fmt.Errorf("pid %d transient spawn failure: %w", p.pid, ErrAgain)
	}
	return k.newLWPLocked(p, class, prio, k.clock.Now()), nil
}

func (k *Kernel) newLWPLocked(p *Process, class Class, prio int, now time.Duration) *LWP {
	p.nextLWP++
	l := &LWP{
		id:        p.nextLWP,
		proc:      p,
		state:     LWPEmbryo,
		class:     class,
		userPrio:  prio,
		lastDecay: now,
		msBorn:    now,
		msMark:    now,
		lastCPU:   -1,
		ps:        k.psets[PsetDefault],
		exited:    make(chan struct{}),
	}
	l.curCPU.Store(-1)
	l.slow.Store(true)
	l.cond = sync.NewCond(&k.mu)
	p.lwps[l.id] = l
	p.liveLWPs++
	k.nactive++ // embryo counts as schedulable: it is about to run
	// A fresh LWP can run threads, so the all-blocked condition no
	// longer holds.
	p.sigwaitingOn = false
	return l
}

// Start attaches the calling goroutine to the LWP as its animator and
// blocks until the kernel dispatches the LWP onto a CPU. It must be
// called exactly once per LWP, before any other kernel service.
func (k *Kernel) Start(l *LWP) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state != LWPEmbryo {
		panic(fmt.Sprintf("sim: Start on lwp %d in state %s", l.id, l.state))
	}
	k.makeRunnableLocked(l, k.clock.Now())
	k.waitOnCPULocked(l)
}

// --- dispatch ----------------------------------------------------------

func (k *Kernel) makeRunnableLocked(l *LWP, now time.Duration) {
	k.setLWPStateLocked(l, now, LWPRunnable)
	k.enqueueLocked(l)
	k.scheduleLocked(now)
}

// enqueueLocked places a runnable LWP on a CPU's dispatch queue.
func (k *Kernel) enqueueLocked(l *LWP) {
	k.runqPushLocked(k.placeLocked(l), l)
}

// runqPushLocked and runqRemoveLocked are the only mutators of the
// per-CPU queues: they keep the global runnable and gang counters
// consistent. Class, priority, gang, CPU-binding and pset changes to
// a queued LWP must remove first and re-push after.
func (k *Kernel) runqPushLocked(c *CPU, l *LWP) {
	c.runq.push(l, globalLevel(l.globalPrio()))
	l.rqCPU = c
	k.nrunnable++
	if l.gang != 0 {
		k.gangQueued++
	}
}

func (k *Kernel) runqRemoveLocked(l *LWP) {
	l.rqCPU.runq.unlink(l)
	l.rqCPU = nil
	k.nrunnable--
	if l.gang != 0 {
		k.gangQueued--
	}
}

// placeLocked chooses the CPU a runnable LWP queues on: its bound CPU
// if hard-bound; otherwise, within its processor set, the CPU it last
// ran on (cache affinity) when that CPU is free or no CPU is free, a
// free CPU over a busy affine one (work conservation beats warmth),
// and the shallowest queue when everything is busy.
func (k *Kernel) placeLocked(l *LWP) *CPU {
	if l.boundCPU != nil {
		return l.boundCPU
	}
	ps := l.ps
	var affin *CPU
	if l.lastCPU >= 0 {
		if c := k.cpus[l.lastCPU]; c.ps == ps {
			affin = c
		}
	}
	var free *CPU
	for _, c := range ps.cpus {
		if c.lwp == nil {
			free = c
			break
		}
	}
	if affin != nil && (affin.lwp == nil || free == nil) {
		return affin
	}
	if free != nil {
		return free
	}
	best := ps.cpus[0]
	for _, c := range ps.cpus[1:] {
		if c.runq.n < best.runq.n {
			best = c
		}
	}
	return best
}

// scheduleLocked assigns queued LWPs to free CPUs: each free CPU pops
// its own queue, stealing from a processor-set sibling when the
// sibling holds strictly better (or the only) stealable work. It then
// runs the periodic balancer if its period elapsed and flags any
// outranked on-CPU LWP for preemption.
func (k *Kernel) scheduleLocked(now time.Duration) {
	for {
		progress := false
		for _, c := range k.cpus {
			if c.lwp != nil {
				continue
			}
			l := k.pickForLocked(c, now)
			if l == nil {
				continue
			}
			k.assignLocked(l, c, now)
			progress = true
		}
		if !progress {
			break
		}
	}
	k.maybeBalanceLocked(now)
	k.preemptCheckLocked()
}

// gangBonus is added to the effective dispatch priority of a runnable
// gang member whose gang already has a member on CPU; the boosted
// priority is capped at the top of the SYS band, so co-scheduling
// beats any timeshare LWP but never a real-time one.
const gangBonus = 60

func (k *Kernel) onCPUGangsLocked() map[int]bool {
	var gangs map[int]bool
	for _, c := range k.cpus {
		if c.lwp != nil && c.lwp.gang != 0 {
			if gangs == nil {
				gangs = make(map[int]bool)
			}
			gangs[c.lwp.gang] = true
		}
	}
	return gangs
}

// pickForLocked selects the LWP for a free CPU: the head of its own
// queue's top level, unless a sibling queue in the same processor set
// holds strictly higher-priority stealable work (or c's queue is
// empty), in which case c steals — so per-CPU queues preserve the
// shared queue's global priority order, and no CPU idles while its
// set has stealable work.
func (k *Kernel) pickForLocked(c *CPU, now time.Duration) *LWP {
	if k.gangQueued > 0 {
		return k.pickGangLocked(c, now)
	}
	own := c.runq.top()
	vLvl := -1
	var victim *CPU
	var candidates []*CPU
	collect := k.chaos.Enabled()
	for _, d := range c.ps.cpus {
		if d == c {
			continue
		}
		lvl := d.runq.topStealable()
		if lvl < 0 {
			continue
		}
		if collect {
			candidates = append(candidates, d)
		}
		if lvl > vLvl {
			vLvl, victim = lvl, d
		}
	}
	if victim != nil && vLvl > own {
		// Chaos: steal from a different victim queue. The thief
		// still takes that queue's best stealable LWP, so the CPU is
		// never idled; only placement is perturbed.
		if alt := k.chaos.StealReorder(len(candidates)); alt >= 0 {
			victim = candidates[alt]
		}
		l := victim.runq.firstStealableAt(victim.runq.topStealable())
		k.runqRemoveLocked(l)
		c.steals++
		k.rings.RecordAt(now, c.id, trace.EvSteal, int(l.proc.pid), int(l.id), 0, uint64(victim.id))
		return l
	}
	if own < 0 {
		return nil
	}
	// Chaos: dispatch a non-best LWP from c's own queue, delaying
	// the best one; preemptCheckLocked reclaims a CPU for it.
	if alt := k.chaos.PickReorder(c.runq.n); alt >= 0 {
		if l := c.runq.nth(alt); l != nil {
			k.runqRemoveLocked(l)
			return l
		}
	}
	l := c.runq.head(own)
	k.runqRemoveLocked(l)
	return l
}

// pickGangLocked is the dispatch slow path while gang members are
// queued: it scans every queue in c's processor set, boosting members
// of gangs already on CPU, reproducing the shared-queue co-scheduling
// semantics. Gang workloads are rare; the common path never scans.
func (k *Kernel) pickGangLocked(c *CPU, now time.Duration) *LWP {
	gangs := k.onCPUGangsLocked()
	var best *LWP
	bestPrio := -1
	var bestCPU *CPU
	var eligible []*LWP
	var eligibleCPU []*CPU
	collect := k.chaos.Enabled()
	for _, d := range c.ps.cpus {
		d.runq.forEach(func(l *LWP) {
			if l.boundCPU != nil && l.boundCPU != c {
				return
			}
			if collect {
				eligible = append(eligible, l)
				eligibleCPU = append(eligibleCPU, d)
			}
			prio := l.globalPrio()
			if l.gang != 0 && gangs[l.gang] {
				prio += gangBonus
				if prio > sysMaxGlobal {
					prio = sysMaxGlobal
				}
			}
			if prio > bestPrio {
				bestPrio = prio
				best = l
				bestCPU = d
			}
		})
	}
	if best == nil {
		return nil
	}
	if alt := k.chaos.PickReorder(len(eligible)); alt >= 0 {
		best, bestCPU = eligible[alt], eligibleCPU[alt]
	}
	k.runqRemoveLocked(best)
	if bestCPU != c {
		c.steals++
		k.rings.RecordAt(now, c.id, trace.EvSteal, int(best.proc.pid), int(best.id), 0, uint64(bestCPU.id))
	}
	return best
}

// maybeBalanceLocked runs the balancer when its period has elapsed on
// the kernel clock (or a chaos source forces an early pass). The
// balancer never runs on its own goroutine: it piggybacks on
// scheduling points, so balanced schedules replay from a seed.
func (k *Kernel) maybeBalanceLocked(now time.Duration) {
	if k.nrunnable == 0 {
		return
	}
	if now-k.lastBalance < balancePeriod && !k.chaos.BalanceEarly() {
		return
	}
	k.balanceLocked(now)
}

// balanceLocked re-levels queued timeshare LWPs whose decayed usage
// moved their priority (the ts_update analogue) and evens out
// stealable queue depths within each processor set, moving the
// lowest-priority, youngest entries from the deepest queue toward the
// shallowest until they differ by at most one.
func (k *Kernel) balanceLocked(now time.Duration) {
	k.lastBalance = now
	var relevel []*LWP
	for _, c := range k.cpus {
		c.runq.forEach(func(l *LWP) {
			if lvl := globalLevel(l.globalPrio()); lvl != l.rqLevel {
				relevel = append(relevel, l)
			}
		})
	}
	for _, l := range relevel {
		c := l.rqCPU
		k.runqRemoveLocked(l)
		k.runqPushLocked(c, l)
	}
	for _, ps := range k.psets {
		if len(ps.cpus) < 2 {
			continue
		}
		for {
			lo, hi := ps.cpus[0], ps.cpus[0]
			for _, c := range ps.cpus[1:] {
				if c.runq.n < lo.runq.n {
					lo = c
				}
				if c.runq.stealableN() > hi.runq.stealableN() {
					hi = c
				}
			}
			if hi.runq.stealableN()-lo.runq.n < 2 || lo == hi {
				break
			}
			l := hi.runq.bottomStealable()
			k.runqRemoveLocked(l)
			k.runqPushLocked(lo, l)
			k.balanceMoves++
			k.rings.RecordAt(now, lo.id, trace.EvBalance, int(l.proc.pid), int(l.id), 0, uint64(hi.id))
		}
	}
}

func (k *Kernel) assignLocked(l *LWP, c *CPU, now time.Duration) {
	k.setLWPStateLocked(l, now, LWPOnCPU)
	l.cpu = c
	c.lwp = l
	l.preempt = false
	l.onCPUSince = now
	l.chargeMark = now
	l.curCPU.Store(int32(c.id))
	c.dispatches++
	if l.lastCPU >= 0 && l.lastCPU != c.id {
		c.migrations++
		k.rings.RecordAt(now, c.id, trace.EvMigrate, int(l.proc.pid), int(l.id), 0, uint64(l.lastCPU))
	}
	l.lastCPU = c.id
	k.rings.RecordAt(now, c.id, trace.EvDispatch, int(l.proc.pid), int(l.id), 0, uint64(l.globalPrio()))
	l.cond.Broadcast()
}

// releaseCPULocked takes the CPU away from l and records the new
// state. The caller is responsible for queueing/wait bookkeeping.
func (k *Kernel) releaseCPULocked(l *LWP, now time.Duration, newState LWPState) {
	if l.cpu == nil {
		k.setLWPStateLocked(l, now, newState)
		return
	}
	k.chargeAtLocked(l, now)
	c := l.cpu
	c.lwp = nil
	l.cpu = nil
	l.curCPU.Store(-1)
	k.setLWPStateLocked(l, now, newState)
	k.scheduleLocked(now)
}

// preemptCheckLocked flags on-CPU LWPs for preemption when a
// higher-priority LWP is waiting for a CPU. Preemption is cooperative
// and takes effect at the victim's next checkpoint.
func (k *Kernel) preemptCheckLocked() {
	if k.nrunnable == 0 {
		return
	}
	for _, ps := range k.psets {
		bestWaiting := -1
		for _, c := range ps.cpus {
			if lvl := c.runq.top(); lvl > bestWaiting {
				bestWaiting = lvl
			}
		}
		if bestWaiting < 0 {
			continue
		}
		for _, c := range ps.cpus {
			if c.lwp == nil {
				continue
			}
			k.settleLocked(c.lwp)
			if c.lwp.globalPrio() < bestWaiting {
				c.lwp.preempt = true
				c.lwp.slow.Store(true)
			}
		}
	}
}

// mustUnwindLocked reports whether the LWP must abandon its current
// kernel wait and unwind (process death, or exec tearing down all
// LWPs but the survivor).
func (k *Kernel) mustUnwindLocked(l *LWP) (string, bool) {
	if l.proc.dying {
		return "process dying", true
	}
	if l.proc.execing && l != l.proc.execSurvivor {
		return "exec", true
	}
	return "", false
}

// waitOnCPULocked blocks until l is dispatched onto a CPU. It panics
// with *Unwind if the process dies (or execs away) while waiting —
// including when death lands in the window where the dispatcher has
// already handed l a CPU but its animator has not woken yet: the exit
// of the wait loop re-checks, or the LWP would run on (and a parking
// LWP would sleep past the kill broadcast, leaving liveLWPs pinned and
// the process unfinalizable).
func (k *Kernel) waitOnCPULocked(l *LWP) {
	for l.state != LWPOnCPU {
		if reason, bad := k.mustUnwindLocked(l); bad {
			k.unwindLocked(l, reason)
		}
		l.cond.Wait()
	}
	if reason, bad := k.mustUnwindLocked(l); bad {
		k.unwindLocked(l, reason)
	}
}

func (k *Kernel) unwindLocked(l *LWP, reason string) {
	// Leave cleanup to ExitLWP, which the recovering animator must
	// call; just make sure we are not on a run queue so the
	// dispatcher cannot hand us a CPU mid-unwind.
	k.removeRunnableLocked(l)
	panic(&Unwind{Proc: l.proc, Reason: reason})
}

func (k *Kernel) removeRunnableLocked(l *LWP) {
	if l.rqOn {
		k.runqRemoveLocked(l)
	}
}

// --- time accounting ---------------------------------------------------

// chargeAtLocked attributes CPU time since the last charge mark to the
// LWP (user or system depending on the in-syscall flag), feeds the
// profiling buffer and interval timers, and enforces the CPU rlimit.
func (k *Kernel) chargeAtLocked(l *LWP, now time.Duration) {
	d := now - l.chargeMark
	l.chargeMark = now
	if d <= 0 {
		return
	}
	p := l.proc
	if l.inSyscall {
		l.sysTime += d
	} else {
		l.userTime += d
		l.prof.charge(l.profLabel, d)
		if l.vtimer != nil {
			l.vtimer.decrement(k, l, d, now)
		}
	}
	if l.ptimer != nil {
		l.ptimer.decrement(k, l, d, now)
	}
	if l.class == ClassTS || l.class == ClassGang {
		l.chargeAndDecay(d, now)
	}
	if p.cpuLimit.Soft != RlimitInfinity && !p.xcpuSent {
		r := p.rusageLocked()
		if r.UserTime+r.SysTime > p.cpuLimit.Soft {
			p.xcpuSent = true
			k.postSignalLocked(p, SIGXCPU, l, now)
		}
	}
}

// settleLocked charges an on-CPU LWP up to its last lock-free
// checkpoint: exactly what that checkpoint would have charged had it
// taken mu. Whatever reads an on-CPU LWP's times or TS usage, or changes
// how a charge applies, settles it first.
func (k *Kernel) settleLocked(l *LWP) {
	if at := time.Duration(l.ckptAt.Load()); l.state == LWPOnCPU && at > l.chargeMark {
		k.chargeAtLocked(l, at)
	}
}

// Checkpoint is a cooperative preemption point. Animators call it at
// synchronization operations, system-call boundaries and voluntary
// yields. It handles process death and exec unwinding, process stop,
// priority preemption and time-slice expiry. It reports whether a
// signal is now deliverable to this LWP, in which case the caller
// should invoke TakeSignal.
//
// With nothing posted (see LWP.slow), before the next TS decay, and
// inside its time slice, it takes no lock: it notes its clock reading
// and defers the charge to the next locked entry or settle. (Past the
// slice it locks: whether anything is queued is asked under mu.)
func (k *Kernel) Checkpoint(l *LWP) (signalPending bool) {
	now := k.clock.Now()
	if slice := k.cfg.TimeSlice; !l.slow.Load() && now < time.Duration(l.fastUntil.Load()) &&
		(slice <= 0 || now-l.onCPUSince < slice) {
		l.ckptAt.Store(int64(now))
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.checkpointLocked(l, now)
	return k.deliverableLocked(l) != 0
}

// checkpointLocked is Checkpoint for an entry that goes on to do more:
// now is the entry's clock reading, and the result is the reading the
// entry continues with — now itself unless the LWP waited here (stopped
// or preempted), a fresh one if it did.
func (k *Kernel) checkpointLocked(l *LWP, now time.Duration) time.Duration {
	p := l.proc
	if p.dying {
		k.unwindLocked(l, "process dying")
	}
	if p.execing && l != p.execSurvivor {
		k.unwindLocked(l, "exec")
	}
	if l.state == LWPOnCPU {
		// Checkpoints are the cooperative analogue of clock
		// ticks: attribute CPU time, drive virtual interval
		// timers, and enforce the CPU rlimit.
		k.chargeAtLocked(l, now)
	}
	for p.state == ProcStopped {
		k.releaseCPULocked(l, now, LWPStopped)
		for p.state == ProcStopped && !p.dying {
			l.cond.Wait()
		}
		if p.dying {
			k.unwindLocked(l, "process dying")
		}
		k.makeRunnableLocked(l, k.clock.Now())
		k.waitOnCPULocked(l)
		now = k.clock.Now()
	}
	slice := k.cfg.TimeSlice
	expired := slice > 0 && now-l.onCPUSince >= slice && k.nrunnable > 0
	// Chaos: force a preemption as if the slice expired, so the
	// dispatcher re-decides who runs here.
	forced := l.state == LWPOnCPU && k.chaos.Preempt()
	if l.preempt || expired || forced {
		if l.cpu != nil {
			k.rings.RecordAt(now, l.cpu.id, trace.EvPreempt, int(l.proc.pid), int(l.id), 0, 0)
		}
		k.releaseCPULocked(l, now, LWPRunnable)
		k.enqueueLocked(l)
		k.scheduleLocked(now)
		k.waitOnCPULocked(l)
		now = k.clock.Now()
	}
	// An atomic store is a locked instruction; most entries change
	// neither value, so store only a change.
	if until := int64(l.nextDecay()); until != l.fastUntil.Load() {
		l.fastUntil.Store(until)
	}
	if slow := k.chaos.Enabled() || p.dying || p.execing || p.state == ProcStopped || l.preempt ||
		k.deliverableLocked(l) != 0 || l.vtimer != nil || l.ptimer != nil || l.prof != nil ||
		p.cpuLimit.Soft != RlimitInfinity; slow != l.slow.Load() {
		l.slow.Store(slow)
	}
	return now
}

// Yield voluntarily gives up the CPU, letting the dispatcher pick the
// highest-priority runnable LWP (possibly this one again).
func (k *Kernel) Yield(l *LWP) {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.checkpointLocked(l, k.clock.Now())
	k.releaseCPULocked(l, now, LWPRunnable)
	k.enqueueLocked(l)
	k.scheduleLocked(now)
	k.waitOnCPULocked(l)
}

// ExitLWP retires the LWP. The animating goroutine must not use the
// LWP afterwards. When the last LWP of a process exits, the process
// itself is finalized. Safe to call from an Unwind recovery.
func (k *Kernel) ExitLWP(l *LWP) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if l.state == LWPZombie {
		return
	}
	p := l.proc
	now := k.clock.Now()
	if l.cpu != nil {
		k.chargeAtLocked(l, now)
		c := l.cpu
		c.lwp = nil
		l.cpu = nil
		l.curCPU.Store(-1)
	}
	if l.wq != nil {
		l.wq.remove(l)
		l.wq = nil
	}
	if l.indefinite {
		p.indefSleepers--
		l.indefinite = false
	}
	if l.state == LWPSigWait {
		p.sigwaiters--
	}
	k.removeRunnableLocked(l)
	if l.psBound {
		l.ps.nbound--
		l.psBound = false
	}
	if l.sleepTimer != nil {
		// An unwind out of a bounded sleep leaves it armed.
		l.sleepTimer.Stop()
		l.sleepDeadline = 0
	}
	k.setLWPStateLocked(l, now, LWPZombie)
	p.deadUser += l.userTime
	p.deadSys += l.sysTime
	delete(p.lwps, l.id)
	p.liveLWPs--
	close(l.exited)
	k.scheduleLocked(now)
	if p.execing && p.execSurvivor != nil {
		p.execSurvivor.cond.Broadcast() // exec barrier progress
	}
	if p.liveLWPs == 0 && p.state == ProcRunning {
		k.finalizeProcLocked(p, now)
	}
	// The all-blocked condition may newly hold among remaining LWPs.
	k.maybeSigwaitingLocked(p, now)
}
