// Package core implements the paper's primary contribution: the
// threads library that multiplexes extremely lightweight user-level
// threads onto kernel-supported LWPs.
//
// A Runtime (the library instance for one process — "libthread")
// owns:
//
//   - the thread table and the user-level run queue of unbound
//     threads, ordered by thread priority;
//   - a pool of LWPs that execute unbound threads. The library code
//     running on an LWP picks the highest-priority runnable thread,
//     assumes its identity (signal mask), and hands it the CPU; when
//     that thread blocks, yields, or exits it picks and loads its own
//     successor the same way (switchFrom) — the paper's Figure 2
//     cycle, entirely in user space. The LWP's own goroutine runs only
//     to start the cycle and to idle the LWP in the kernel when the
//     run queue is empty;
//   - bound threads, each permanently attached to its own LWP, giving
//     it kernel scheduling (real-time class, CPU binding, per-LWP
//     timers) while retaining the whole thread API;
//   - thread-local storage, per-thread signal masks, and the
//     SIGWAITING-driven automatic growth of the LWP pool.
//
// # Context switching in this reproduction
//
// Real SunOS switches threads by saving and loading register state.
// Go forbids that, so every thread is lazily given a goroutine that
// runs only while it holds its LWP's grant; "saving thread state" is
// the thread parking on its gate channel after granting the LWP to its
// successor's goroutine. The multiplexing structure — who is allowed
// to run, on which LWP, with which mask, with no kernel involvement on
// the switch path — is exactly the paper's. See DESIGN.md for the
// substitution table.
//
// # Locking
//
// Runtime.mu guards the library-level scheduling state, the run queue
// included: every transition that queues or dequeues a thread already
// holds it. Runtime.mu is never held across a kernel call that can
// block (Park, Sleep, Start); it may be held across non-blocking
// kernel calls (Unpark).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
)

// Config configures a Runtime.
type Config struct {
	// MaxAutoLWPs caps SIGWAITING-driven pool growth (default 64).
	MaxAutoLWPs int
	// DefaultStackSize is used when thread_create is given no
	// stack (default 64 KiB, simulated).
	DefaultStackSize int
	// StackMem, if non-nil, carves thread stacks from an address
	// space (reserve on create, commit on first dispatch) instead of
	// allocating host memory per stack. mt wires the process's
	// vm.AddressSpace here so a million mostly-idle threads cost
	// address space, not committed bytes.
	StackMem StackMem
	// DisableSigwaiting turns off automatic LWP creation on
	// SIGWAITING — the ablation knob for the deadlock-avoidance
	// experiment.
	DisableSigwaiting bool
	// InitialLWP, if set, is adopted as the runtime's first pool
	// LWP instead of creating a fresh one. Exec uses it to hand
	// the single LWP the kernel rebuilds to the new image's
	// runtime ("When exec() rebuilds the process, it creates a
	// single LWP. The process startup code then builds the initial
	// thread.").
	InitialLWP *sim.LWP
	// LWPAgeTime retires a pool LWP that has sat idle this long —
	// the shrink counterpart of SIGWAITING growth, so a burst of
	// concurrency does not pin kernel resources forever. Zero
	// disables aging. Aging applies only under automatic sizing
	// (thread_setconcurrency 0) and never retires the last LWP.
	LWPAgeTime time.Duration
	// NoPriorityInheritance disables turnstile priority
	// inheritance: blocking acquirers no longer will their effective
	// priority to lock owners. The ablation knob behind the
	// PriorityInversion bench and the examples/realtime demo; sleep
	// queues stay priority-ordered either way.
	NoPriorityInheritance bool
	// MaxThreads is the per-process thread cap: Create fails with
	// ErrAgain once this many threads are live. Zero is unlimited.
	// This is the library-level admission control that lets a server
	// shed load with an error instead of exhausting the kernel.
	MaxThreads int
	// WatchdogDeadline is the residency deadline the health monitor
	// judges against: an LWP on-CPU, or a thread blocked on a lock
	// or sleep, for longer than this is flagged stuck. Zero selects
	// the default (1s). See Runtime.Health.
	WatchdogDeadline time.Duration
	// LockPolicy selects the process-default mutex lock/wake policy
	// for tsync mutexes that do not pin one per-lock. The values are
	// tsync's Policy constants (core cannot import tsync); 0 selects
	// the adaptive default. The per-process ablation knob beside
	// NoPriorityInheritance.
	LockPolicy int
}

// Runtime is the threads library instance for one process.
type Runtime struct {
	kern  *sim.Kernel
	proc  *sim.Process
	cfg   Config
	rings *trace.Rings // kernel's event rings (nil: tracing off)

	mu      sync.Mutex
	threads map[ThreadID]*Thread
	nextID  ThreadID
	nlive   int // threads not yet zombies
	ndaemon int // live daemon threads

	// runq is the one set of runnable unbound threads the pool LWPs
	// pick from (paper Figure 2); guarded by mu, as is every transition
	// that feeds or drains it. rqPushes/rqPops count its traffic.
	runq     runQueue
	rqPushes uint64
	rqPops   uint64
	dying    atomic.Bool // atomic: a woken thread reads it without mu (awaitDispatch)
	idle     []*poolLWP  // idle pool LWPs, LIFO
	pool     []*poolLWP  // all pool LWPs
	nparked  int
	retiring int // pool LWPs asked to exit
	agedOut  int // pool LWPs retired by idle aging (stats)

	concurrency int // thread_setconcurrency target; 0 = automatic

	sw SwitchStats // how switches were carried out; guarded by mu

	// SIGWAITING growth backoff (see onSigwaiting): after a failed
	// LWP spawn the pool waits growBackoff (doubling per consecutive
	// failure, bounded) before trying again, instead of retrying on
	// every SIGWAITING.
	growBackoff    time.Duration
	growNextAt     time.Duration
	growRetryArmed bool
	growFailures   uint64
	growDeferred   uint64

	zombies   map[ThreadID]*Thread // THREAD_WAIT zombies awaiting thread_wait
	anyWC     WaitChan             // thread_wait(0) callers sleep here
	tsdKeys   atomic.Pointer[[]tsdEntry]
	exitWG    sync.WaitGroup // animator goroutines
	exitedCh  chan struct{}
	exitOnce  sync.Once
	tlsSize   int
	tlsFrozen bool

	stackMem   StackMem
	stackCache []stackSpan // cached default-stack carves (paper: Fig 5 uses a cached stack)
	tlsCache   [][]byte    // recycled TLS blocks, paired with stackCache
	tcache     []*Thread   // Thread-struct freelist (zero-alloc create)

	// idleAnim holds the handoff channels of animator goroutines
	// whose thread has exited: first dispatch hands them a new thread
	// instead of spawning a goroutine (and paying its closure
	// allocation). See Runtime.animate.
	idleAnim []chan *Thread

	// Thread-shell slab: the mass-create cold path carves Thread,
	// threadAux, and wait-channel buckets from batch-allocated arrays
	// instead of paying one host allocation each per thread. Guarded
	// by mu. See allocThreadLocked.
	slabT    []Thread
	slabA    []threadAux
	slabB    []sleepqBucket
	slabUsed int
}

// poolLWP is one LWP dedicated to running unbound threads. Threads
// pass it from one to the next themselves (switchFrom); its own
// goroutine, poolLoop, holds it only while no thread is loaded.
type poolLWP struct {
	l *sim.LWP
	// back returns the LWP to its pool goroutine, which blocks here
	// from the moment it dispatches a thread until a switchFrom finds
	// no successor to load.
	back chan struct{}
	// cur is the thread loaded on the LWP, nil while the pool
	// goroutine holds it. Guarded by Runtime.mu; switchFrom and runOn
	// are its only writers, so cur == t exactly while t is on the LWP.
	cur     *Thread
	die     atomic.Bool // retire at next dispatch point
	counted bool        // counted in Runtime.retiring; guarded by mu

	// mask is the signal mask last pushed to the kernel for l, valid
	// once maskKnown (an adopted LWP arrives with a mask the library
	// never set). Kernel.SetLWPMask is the only writer of the kernel's
	// copy and every push for a pool LWP goes through setMaskLocked, so
	// the cache is exact and a push is skipped whenever the mask
	// wanted is the mask installed. Guarded by Runtime.mu.
	mask      sim.Sigset
	maskKnown bool
}

// SwitchStats counts how the library moved pool LWPs between unbound
// threads. Direct + Fallback is the number of times a thread left an
// LWP; Direct is also the number of host goroutine handoffs those
// switches saved.
type SwitchStats struct {
	// Direct: the departing thread loaded and granted its successor
	// itself; the pool goroutine never ran.
	Direct uint64
	// Fallback: the LWP went back to its pool goroutine — empty run
	// queue, LWP retiring, or process dying.
	Fallback uint64
	// MaskPushes: signal masks pushed to the kernel for pool LWPs
	// (one SetLWPMask, hence one kernel-lock section, each).
	MaskPushes uint64
}

// SwitchStats reports the runtime's switch counters.
func (m *Runtime) SwitchStats() SwitchStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sw
}

// allSigs is the fully-blocked mask installed on idle pool LWPs so
// that interrupts are never routed to an LWP with no thread identity.
const allSigs = ^sim.Sigset(0)

// NewRuntime creates the threads library for proc. The process must
// have no LWPs yet; the runtime creates the initial pool LWP that
// will execute the main thread (the paper: "One lightweight process
// is created by the kernel when a program is started, and it starts
// executing the thread compiled as the main program").
func NewRuntime(kern *sim.Kernel, proc *sim.Process, cfg Config) *Runtime {
	if cfg.MaxAutoLWPs <= 0 {
		cfg.MaxAutoLWPs = 64
	}
	if cfg.DefaultStackSize <= 0 {
		cfg.DefaultStackSize = 64 << 10
	}
	if cfg.StackMem == nil {
		cfg.StackMem = newFlatStackMem()
	}
	m := &Runtime{
		kern:       kern,
		proc:       proc,
		cfg:        cfg,
		stackMem:   cfg.StackMem,
		rings:      kern.Rings(),
		threads:    make(map[ThreadID]*Thread),
		zombies:    make(map[ThreadID]*Thread),
		anyWC:      AllocWaitChan(),
		exitedCh:   make(chan struct{}),
		stackCache: make([]stackSpan, 0, stackCacheSize),
		tlsCache:   make([][]byte, 0, stackCacheSize),
	}
	// The library consumes SIGWAITING privately (the hook is its
	// ASLWP stand-in) and grows the pool when the kernel reports
	// that every LWP is blocked indefinitely. The disposition is
	// ignore so the notification never EINTRs the blocked LWPs
	// themselves.
	if !cfg.DisableSigwaiting {
		kern.SetAction(proc, sim.SIGWAITING, sim.SigIgn, nil, 0)
		proc.SetSigwaitingHook(m.onSigwaiting)
	}
	return m
}

// Kernel returns the kernel under this runtime.
func (m *Runtime) Kernel() *sim.Kernel { return m.kern }

// ChaosSource returns the kernel's chaos source (nil when chaos is not
// configured); the library and the synchronization primitives draw
// their perturbation decisions from it.
func (m *Runtime) ChaosSource() *chaos.Source { return m.kern.Chaos() }

// Process returns the kernel process this runtime manages.
func (m *Runtime) Process() *sim.Process { return m.proc }

// Exited is closed when the process has exited and all animator
// goroutines have finished.
func (m *Runtime) Exited() <-chan struct{} { return m.exitedCh }

// Start creates the main thread running fn(arg) on the initial pool
// LWP and returns it. It must be called exactly once.
func (m *Runtime) Start(fn Func, arg any) (*Thread, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: nil main function")
	}
	m.mu.Lock()
	m.tlsFrozen = true // program start freezes TLS size (paper)
	m.mu.Unlock()
	t, err := m.Create(fn, arg, CreateOpts{Flags: ThreadWait})
	if err != nil {
		return nil, err
	}
	if err := m.addPoolLWP(); err != nil {
		return nil, err
	}
	go m.watchProcess()
	return t, nil
}

// watchProcess reaps the runtime when the kernel process dies: any
// user-level-parked threads (invisible to the kernel) are released so
// their goroutines can unwind.
func (m *Runtime) watchProcess() {
	<-m.proc.Exited()
	m.sweepDying()
	m.exitWG.Wait()
	m.exitOnce.Do(func() { close(m.exitedCh) })
}

// Shutdown tears down the runtime's user-level state: all parked
// threads are released to unwind. The kernel process itself is not
// touched; exec uses this to retire the old image's threads.
func (m *Runtime) Shutdown() { m.sweepDying() }

// sweepDying releases every user-parked thread of a dying process.
// Idempotent and safe to call concurrently: each thread is granted at
// most once (killed flag), and the grant is non-blocking.
func (m *Runtime) sweepDying() {
	m.mu.Lock()
	m.dying.Store(true)
	var parked []*Thread
	for _, t := range m.threads {
		if t.state != ThreadRunning && t.state != ThreadZombie && !t.bound() && t.started && !t.hasReq(tfKilled) {
			t.setReq(tfKilled)
			parked = append(parked, t)
		}
	}
	m.runq.clear()
	// Shutdown releases the recycling caches; a dying process makes
	// no more threads. Standby animators are told to exit so exitWG
	// can drain.
	m.stackCache = nil
	m.tlsCache = nil
	m.tcache = nil
	m.slabT, m.slabA, m.slabB, m.slabUsed = nil, nil, nil, 0
	anims := m.idleAnim
	m.idleAnim = nil
	m.mu.Unlock()
	for _, ch := range anims {
		ch <- nil // buffered: the animator is parked receiving
	}
	for _, t := range parked {
		select {
		case t.gate <- struct{}{}: // wakes in park(), observes dying, unwinds
		default:
		}
	}
}

// --- LWP pool ----------------------------------------------------------

// addPoolLWP creates one more LWP for running unbound threads (or
// adopts the configured initial LWP the first time).
func (m *Runtime) addPoolLWP() error {
	var l *sim.LWP
	m.mu.Lock()
	if m.cfg.InitialLWP != nil {
		l = m.cfg.InitialLWP
		m.cfg.InitialLWP = nil
	}
	m.mu.Unlock()
	if l == nil {
		var err error
		l, err = m.kern.NewLWP(m.proc, sim.ClassTS, 30)
		if err != nil {
			return err
		}
	}
	pl := &poolLWP{l: l, back: make(chan struct{}, 1)}
	m.mu.Lock()
	m.pool = append(m.pool, pl)
	m.mu.Unlock()
	m.exitWG.Add(1)
	go m.poolLoop(pl)
	return nil
}

// poolLoop is the pool LWP's own goroutine: it starts the paper's
// Figure 2 cycle — choose a thread, assume its identity, run it — and
// then stands aside while the threads hand the LWP to one another. It
// gets the LWP back only to idle it in the kernel or retire it.
func (m *Runtime) poolLoop(pl *poolLWP) {
	defer m.exitWG.Done()
	defer func() {
		if r := recover(); r != nil && !sim.IsUnwind(r) {
			panic(r)
		}
		m.kern.ExitLWP(pl.l)
		m.mu.Lock()
		if pl.counted {
			pl.counted = false
			m.retiring--
		}
		m.removePoolLocked(pl)
		m.mu.Unlock()
		m.sweepIfDying()
	}()
	m.kern.Start(pl.l)
	for m.dispatch(pl) {
	}
}

func (m *Runtime) removePoolLocked(pl *poolLWP) {
	for i, x := range m.pool {
		if x == pl {
			m.pool = append(m.pool[:i], m.pool[i+1:]...)
			break
		}
	}
	m.dropIdleLocked(pl)
}

// dropIdleLocked takes pl off the idle list, reporting whether it was
// on it. Caller holds m.mu.
func (m *Runtime) dropIdleLocked(pl *poolLWP) bool {
	for i, x := range m.idle {
		if x == pl {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			return true
		}
	}
	return false
}

func (m *Runtime) sweepIfDying() {
	if m.proc.Dying() {
		m.sweepDying()
	}
}

// dispatch is the pool goroutine's turn with pl. In one m.mu section
// it either pops a thread and starts the Figure 2 cycle with it —
// blocking until the threads running on pl, which pass the LWP among
// themselves (switchFrom), find no successor and hand it back — or
// registers pl idle and parks it in the kernel. A push and the idle
// list are under the same lock, so a pusher either finds pl idle and
// unparks it or pl finds the push. It reports false when pl must
// retire.
func (m *Runtime) dispatch(pl *poolLWP) bool {
	m.mu.Lock()
	if pl.die.Load() || m.dying.Load() {
		pl.die.Store(true)
		m.mu.Unlock()
		return false
	}
	if t := m.popLocked(); t != nil {
		m.runOn(pl, t, m.kern.Clock().Now())
		<-pl.back
		return true
	}
	m.idle = append(m.idle, pl)
	m.nparked++
	// Idle LWPs mask everything: an interrupt must be routed to an LWP
	// that is executing a thread with the signal unmasked, never to an
	// idle dispatcher.
	pushMask := m.setMaskLocked(pl, allSigs)
	m.mu.Unlock()
	if pushMask {
		m.kern.SetLWPMask(pl.l, sim.SigSetMask, allSigs)
	}
	// Arm the idle age-out timer: an LWP that finds no work for
	// LWPAgeTime is retired (ageOut re-checks eligibility under the
	// lock, so a racing enqueue always wins). Chaos can expire the
	// grace period immediately — early expiry is the safe direction,
	// since SIGWAITING regrows the pool.
	var ageTimer ktime.Timer
	if d := m.cfg.LWPAgeTime; d > 0 {
		if m.kern.Chaos().AgeOutEarly() {
			d = time.Nanosecond
		}
		ageTimer = m.kern.Clock().AfterFunc(d, func() { m.ageOut(pl) })
	}
	m.kern.Park(pl.l)
	if ageTimer != nil {
		ageTimer.Stop()
	}
	m.mu.Lock()
	m.nparked--
	// We may still be on the idle list if the unpark came from a
	// permit; drop ourselves.
	m.dropIdleLocked(pl)
	m.mu.Unlock()
	return true
}

// popLocked takes the best runnable thread off the run queue, or nil.
// Caller holds m.mu.
func (m *Runtime) popLocked() *Thread {
	t := m.runq.pop(m.kern.Chaos())
	if t != nil {
		m.rqPops++
	}
	return t
}

// ageOut retires pl if it is still idle when its age timer fires. It
// removes pl from the idle list before unparking so a concurrent
// enqueue can never hand work to a dying LWP (no lost wakeups).
func (m *Runtime) ageOut(pl *poolLWP) {
	m.mu.Lock()
	idle := m.dropIdleLocked(pl)
	if !idle || pl.die.Load() || m.dying.Load() || m.concurrency != 0 || len(m.pool)-m.retiring <= 1 {
		if idle {
			m.idle = append(m.idle, pl) // not eligible after all
		}
		m.mu.Unlock()
		return
	}
	pl.die.Store(true)
	pl.counted = true
	m.retiring++
	m.agedOut++
	m.mu.Unlock()
	m.kern.Unpark(pl.l)
}

// AgedOut reports how many pool LWPs idle aging has retired.
func (m *Runtime) AgedOut() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.agedOut
}

// runOn loads t onto pl and hands it the CPU: Figure 2 steps (a)
// thread chosen, (b) assume its identity — state, the LWP's claim, the
// microstate charge, and the signal mask, pushed to the kernel only if
// it differs from the mask already installed — and execute. Step (c),
// saving state, is the thread's own park. Called with m.mu held by
// whoever holds pl — the departing thread or the pool goroutine — and
// with the runtime not dying; returns with m.mu released.
func (m *Runtime) runOn(pl *poolLWP, t *Thread, now time.Duration) {
	t.state = ThreadRunning
	t.msSwitchLocked(now, MSUser)
	t.lwp = pl
	t.carrier.Store(pl.l)
	pl.cur = t
	first := !t.started
	t.started = true
	mask := t.sigmask
	pushMask := m.setMaskLocked(pl, mask)
	m.mu.Unlock()
	if pushMask {
		m.kern.SetLWPMask(pl.l, sim.SigSetMask, mask)
	}
	// Arg 1: dispatched from the run queue.
	m.rings.RecordAt(now, pl.l.CurCPU(), trace.EvThreadRun, int(m.proc.PID()), int(pl.l.ID()), int(t.id), 1)
	if first {
		// First dispatch: the thread is about to push its first
		// frame, so commit the top of its (reserved-only) stack and
		// give it an animator goroutine (recycled when possible).
		m.touchStack(t)
		m.startAnimator(t)
	}
	t.grant()
}

// setMaskLocked notes that pl's kernel signal mask is about to become
// set and reports whether the caller must push it (after dropping
// m.mu, from the goroutine that holds pl — which is what keeps the
// pushes for one LWP in cache order). Caller holds m.mu.
func (m *Runtime) setMaskLocked(pl *poolLWP, set sim.Sigset) bool {
	if pl.maskKnown && pl.mask == set {
		return false
	}
	pl.mask, pl.maskKnown = set, true
	m.sw.MaskPushes++
	return true
}

// switchFrom is the user-level context switch, run by the library code
// on the LWP itself as in the paper's Figure 2: the calling thread has
// just moved itself off pl — parked, requeued, exited, or torn down —
// and here, in the same Runtime.mu section, pops its successor from
// the run queue and loads it onto pl. The LWP passes from one thread's
// goroutine straight to the next's: one host handoff, and the pool
// goroutine stays blocked on pl.back. It gets the LWP back only when
// there is nothing to load: the pop came up empty (it will idle the
// LWP in the kernel), or pl is retiring or the process is dying (it
// will retire the LWP). A killed successor needs no case of its own:
// threads are killed only by the dying sweep, which sets dying in the
// same m.mu section, so with dying clear under the m.mu held here
// nothing popped can be killed.
//
// Called with m.mu held — every unbound off-LWP transition ends here —
// and returns with it released. The caller then blocks on its own gate
// or unwinds; it must not touch pl again. A nil pl (the caller was not
// loaded on an LWP) only releases the lock.
func (m *Runtime) switchFrom(pl *poolLWP, now time.Duration) {
	if pl == nil {
		m.mu.Unlock()
		return
	}
	pl.cur = nil
	if !pl.die.Load() && !m.dying.Load() {
		if next := m.popLocked(); next != nil {
			m.sw.Direct++
			m.runOn(pl, next, now)
			return
		}
	}
	m.sw.Fallback++
	m.mu.Unlock()
	pl.back <- struct{}{}
}

// --- concurrency control ------------------------------------------------

// SetMaxThreads changes the per-process thread cap (Config.MaxThreads;
// zero is unlimited) — the library-level setrlimit. A fork child
// starts under its parent's configured cap, as it starts under the
// parent's LWP rlimit, and lifts or lowers it here. Threads already
// live above a lowered cap are not disturbed.
func (m *Runtime) SetMaxThreads(n int) {
	m.mu.Lock()
	m.cfg.MaxThreads = n
	m.mu.Unlock()
}

// SetConcurrency implements thread_setconcurrency(n): it sets the
// number of LWPs available to run unbound threads. n == 0 restores
// automatic (SIGWAITING-driven) sizing.
func (m *Runtime) SetConcurrency(n int) error {
	if n < 0 {
		return fmt.Errorf("core: negative concurrency %d", n)
	}
	m.mu.Lock()
	m.concurrency = n
	have := len(m.pool) - m.retiring
	var grow int
	if n > 0 {
		grow = n - have
		if grow < 0 {
			// Retire surplus idle LWPs: mark and unpark them.
			shrink := -grow
			for _, pl := range m.idle {
				if shrink == 0 {
					break
				}
				if !pl.die.Load() {
					pl.die.Store(true)
					pl.counted = true
					m.retiring++
					shrink--
					m.kern.Unpark(pl.l)
				}
			}
			// Any remainder retires lazily: mark busy LWPs.
			for _, pl := range m.pool {
				if shrink == 0 {
					break
				}
				if !pl.die.Load() {
					pl.die.Store(true)
					pl.counted = true
					m.retiring++
					shrink--
				}
			}
		}
	}
	m.mu.Unlock()
	for i := 0; i < grow; i++ {
		if err := m.addPoolLWP(); err != nil {
			return err
		}
	}
	return nil
}

// Concurrency reports the current number of pool LWPs.
func (m *Runtime) Concurrency() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pool) - m.retiring
}

// SIGWAITING growth backoff bounds: the first failed spawn waits
// minGrowBackoff before retrying; consecutive failures double the
// wait up to maxGrowBackoff.
const (
	minGrowBackoff = time.Millisecond
	maxGrowBackoff = 128 * time.Millisecond
)

// onSigwaiting grows the pool when the kernel reports that all LWPs
// are blocked in indefinite waits and runnable threads exist — the
// deadlock-avoidance mechanism of the paper ("The threads package can
// use the receipt of SIGWAITING to cause extra LWPs to be created as
// required to avoid deadlock").
//
// Growth is failure-aware: when the kernel refuses an LWP (EAGAIN at
// the rlimit, transient chaos fault) the pool backs off with bounded
// exponential delay rather than re-spawning on every SIGWAITING, and
// arms a retry timer so growth resumes even if no further SIGWAITING
// arrives (the kernel's edge trigger will not repost while the
// blocked set is unchanged).
func (m *Runtime) onSigwaiting() {
	m.mu.Lock()
	need := m.runq.len() > 0 && !m.dying.Load() &&
		len(m.pool)-m.retiring < m.cfg.MaxAutoLWPs &&
		m.concurrency == 0
	if need && m.growBackoff > 0 {
		if now := m.kern.Clock().Now(); now < m.growNextAt {
			m.growDeferred++
			m.ensureGrowRetryLocked(m.growNextAt - now)
			m.mu.Unlock()
			return
		}
	}
	m.mu.Unlock()
	if !need {
		return
	}
	if err := m.addPoolLWP(); err != nil {
		m.growthFailed(m.kern.Clock().Now(), err)
		return
	}
	m.mu.Lock()
	m.growBackoff = 0
	m.mu.Unlock()
}

// growIfAllBlocked is the waker's half of SIGWAITING growth. A caller
// that queued a thread and found no idle LWP for it, with Runtime.mu
// dropped, grows the pool on a fresh goroutine if every LWP is in an
// indefinite sleep: the hook that episode ran may have read the run
// queue before this thread was on it, and no LWP may ever wake to run
// it. The kernel stores the all-blocked flag before its hook reads the
// run queue and this caller queued before loading the flag, so either
// the hook saw the thread or this load sees the flag.
func (m *Runtime) growIfAllBlocked() {
	if !m.cfg.DisableSigwaiting && m.proc.AllBlocked() {
		go m.onSigwaiting()
	}
}

// growthFailed records a failed SIGWAITING spawn: double the backoff
// (bounded) and make sure a retry fires after it elapses.
func (m *Runtime) growthFailed(now time.Duration, err error) {
	m.mu.Lock()
	switch {
	case m.growBackoff == 0:
		m.growBackoff = minGrowBackoff
	case m.growBackoff < maxGrowBackoff:
		m.growBackoff *= 2
	}
	d := m.growBackoff
	m.growNextAt = now + d
	m.growFailures++
	m.ensureGrowRetryLocked(d)
	m.mu.Unlock()
}

// ensureGrowRetryLocked arms at most one pending retry timer that
// re-evaluates pool growth once the backoff window closes.
func (m *Runtime) ensureGrowRetryLocked(d time.Duration) {
	if m.growRetryArmed || m.dying.Load() {
		return
	}
	m.growRetryArmed = true
	m.kern.Clock().AfterFunc(d, func() {
		m.mu.Lock()
		m.growRetryArmed = false
		m.mu.Unlock()
		m.onSigwaiting()
	})
}

// GrowthStats reports the SIGWAITING degradation counters: spawn
// failures, growth attempts absorbed by the backoff window, and the
// current backoff (0 when the last spawn succeeded).
func (m *Runtime) GrowthStats() (failures, deferred uint64, backoff time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.growFailures, m.growDeferred, m.growBackoff
}

// PoolSize reports the number of pool LWPs (for tests and mtstat).
func (m *Runtime) PoolSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pool)
}

// RunnableThreads reports the length of the user-level run queue.
func (m *Runtime) RunnableThreads() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runq.len()
}

// LockPolicy reports the process-default lock policy configured for
// this runtime (tsync's Policy constants; 0 = adaptive default).
func (m *Runtime) LockPolicy() int { return m.cfg.LockPolicy }
