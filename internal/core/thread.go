package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
)

// ThreadID identifies a thread within its process; thread IDs have no
// meaning outside the process (paper).
type ThreadID int

// Func is a thread body. Because Go provides no implicit
// thread-local "current thread" register, the thread handle is passed
// explicitly as the first argument; every potentially-blocking
// library call takes the calling thread. This is the one deliberate
// API deviation from Figure 4 and is recorded in DESIGN.md.
type Func func(t *Thread, arg any)

// CreateFlags are the or'able options of thread_create.
type CreateFlags int

// thread_create flags (paper, "Thread creation").
const (
	// ThreadStop: the thread is created suspended and will not run
	// until Continue.
	ThreadStop CreateFlags = 1 << iota
	// ThreadNewLWP: create a new LWP and add it to the pool used
	// to execute unbound threads.
	ThreadNewLWP
	// ThreadBindLWP: create a new LWP and permanently bind the new
	// thread to it.
	ThreadBindLWP
	// ThreadWait: another thread will eventually thread_wait for
	// this one; its ID is not reused until then.
	ThreadWait
	// ThreadDaemon threads do not keep the process alive: the
	// process exits when only daemon threads remain. (An extension
	// present in the shipped Solaris library.)
	ThreadDaemon
)

// ThreadState is the library-level state of a thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadSleeping // blocked on a synchronization object
	ThreadStopped
	ThreadWaiting // in thread_wait
	ThreadZombie
)

// String implements fmt.Stringer.
func (s ThreadState) String() string {
	switch s {
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadSleeping:
		return "sleeping"
	case ThreadStopped:
		return "stopped"
	case ThreadWaiting:
		return "waiting"
	case ThreadZombie:
		return "zombie"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Errors returned by thread operations.
var (
	ErrNoThread   = errors.New("core: no such thread")
	ErrNotWaited  = errors.New("core: thread was not created with THREAD_WAIT")
	ErrSelfWait   = errors.New("core: cannot wait for the current thread")
	ErrDoubleWait = errors.New("core: another thread is already waiting")
	ErrBadPrio    = errors.New("core: priority must be >= 0")
	ErrExiting    = errors.New("core: process is exiting")
	ErrNotBound   = errors.New("core: thread is not bound to an LWP")

	// ErrAgain is EAGAIN — thr_create's documented failure when "a
	// system limit is exceeded": the per-process thread cap, a stack
	// allocation failure, or the kernel refusing another LWP. One
	// sentinel (the kernel's) is shared across layers so callers
	// test errors.Is(err, ErrAgain) regardless of which resource ran
	// out. Always transient: retry later or shed the request.
	ErrAgain = sim.ErrAgain
)

// CreateOpts carries the optional thread_create parameters.
type CreateOpts struct {
	Flags CreateFlags
	// Stack is the caller-supplied stack (stack_addr/stack_size);
	// nil means the library allocates (and caches) a default
	// stack. Thread-local storage is carved from the top of a
	// caller-supplied stack so the library never calls malloc on
	// the caller's behalf (paper design goal).
	Stack []byte
	// StackSize requests a specific library-allocated stack size
	// when Stack is nil.
	StackSize int
	// Priority sets the initial priority when > 0; the zero value
	// keeps the library default (1). Higher values win.
	Priority int
}

// Thread is a user-level thread: per the paper its unique state is
// the thread ID, register state (here: the goroutine and gate),
// stack, signal mask, priority, and thread-local storage.
type Thread struct {
	m     *Runtime
	id    ThreadID
	flags CreateFlags
	fn    Func
	arg   any

	gate chan struct{} // run grant; buffered(1)

	// Intrusive run-queue node (Solaris: t_link on the disp_q).
	// Guarded by Runtime.mu, like the queue itself.
	rqNext, rqPrev *Thread
	rqLevel        int
	rqOn           bool

	// Intrusive sleep-queue node. sqNext/sqPrev are guarded by the
	// shard lock of the channel the thread is queued on; sqBkt
	// itself is atomic so teardown can read it without that lock.
	sqNext, sqPrev *Thread
	sqBkt          atomic.Pointer[sleepqBucket]

	// waitWC is the thread_wait sleep channel of this thread:
	// threads waiting for this one to exit park here. Immutable
	// after create.
	waitWC WaitChan

	// carrier names the LWP the thread is loaded on: a bound thread's
	// own LWP for life, an unbound thread's pool LWP (t.lwp.l) from
	// runOn until the thread takes itself off it, nil in between.
	// Stored under m.mu, next to t.lwp; read lock-free by LWP and OnCPU.
	carrier atomic.Pointer[sim.LWP]

	// blocked is the wait-for edge published just before parking on
	// a synchronization object; atomic so the hot park/unpark path
	// publishes it without touching Runtime.mu.
	blocked atomic.Pointer[BlockInfo]

	// effPrio is the effective (inherited) dispatch priority: the
	// base priority plus any boost willed through held turnstiles.
	// The run queue and the sleep queues order by it. Written only
	// under m.mu (setEffLocked); atomic so the inheritance walk and
	// the sleep-queue insert read it without m.mu.
	effPrio atomic.Int32

	// heldTs heads the list of turnstiles this thread owns (the
	// locks it holds that track ownership); guarded by m.mu.
	heldTs *Turnstile

	// reqs is the word of cross-thread requests (tf* bits) the thread
	// honours at its next dispatch point. Bits are set under m.mu, so
	// a setter can pair the request with the state it observed; the
	// thread itself tests — and clears tfPreempt — lock-free, which is
	// what keeps Runtime.mu off the resume side of a switch and off
	// Checkpoint's fast path.
	reqs atomic.Uint32

	// All fields below are guarded by m.mu unless noted.
	state      ThreadState
	prio       int
	lwp        *poolLWP // while running unbound
	bndLWP     *sim.LWP // bound threads only; immutable after create
	started    bool
	wakePermit bool
	sigmask    sim.Sigset // also mirrored into the LWP while running
	errno      int

	// Stack descriptor. Library stacks are reservations in the
	// process address space (or the built-in flat mapper): stkBase/
	// stkSize name the carve, stackOwn marks it library-owned, and
	// stkTouched says its top is already committed (a cached carve an
	// earlier thread ran on). A caller-supplied stack keeps its bytes
	// in stack. All of it is released when the thread exits.
	stkBase    int64
	stkSize    int64
	stackOwn   bool
	stkTouched bool
	stack      []byte // caller-supplied stack only
	tls        []byte // thread-local storage block (pooled)

	// aux is the cold half of the thread: TSD slots, wait/exit
	// bookkeeping, signal pending set, fork continuation, and
	// microstate accounting. It is split out so the hot scheduling
	// fields above pack tightly, and it recycles with the shell
	// through the freelist. Guarded by m.mu unless noted.
	aux *threadAux
}

// threadAux holds the demoted cold per-thread state. One block is
// allocated per shell and scrubbed at reuse (deferred scrub: a
// retired thread's handle keeps readable microstates until a later
// create recycles the struct, like pthread_t reuse).
type threadAux struct {
	// tsd is the thread-specific-data slot table, indexed by TSDKey.
	// Owner-thread access only (no lock): see tsd.go.
	tsd []any

	stopWaiters []*Thread
	pending     sim.Sigset // thread-directed pending signals
	forkCont    Func
	forkArg     any

	// Microstate accounting (see microstate.go): the state being
	// charged, the virtual time of the last transition, birth time,
	// and the per-state accumulators. Guarded by m.mu.
	msState Microstate
	msMark  time.Duration
	msBorn  time.Duration
	msAcc   [NumMicrostates]time.Duration
}

// Thread request bits (Thread.reqs).
const (
	// tfKilled: the dying sweep released the thread from its park;
	// the grant it wakes on means unwind, not resume.
	tfKilled uint32 = 1 << iota
	// tfStopReq: a thread_stop (or THREAD_STOP create) is pending;
	// cleared by thread_continue.
	tfStopReq
	// tfPreempt: a higher-priority thread is runnable (or a stopper is
	// waiting); give up the LWP at the next Checkpoint.
	tfPreempt
	// tfSigPending: a thread_kill is pending on the thread (aux.pending
	// is not empty), masked or not. Set by Kill and cleared by
	// pollSignals, both under m.mu; Checkpoint tests it lock-free.
	tfSigPending
)

func (t *Thread) hasReq(f uint32) bool { return t.reqs.Load()&f != 0 }

// setReq and clearReq are CAS loops rather than atomic Or/And, which
// the go.mod language version predates.
func (t *Thread) setReq(f uint32) {
	for {
		old := t.reqs.Load()
		if old&f == f || t.reqs.CompareAndSwap(old, old|f) {
			return
		}
	}
}

func (t *Thread) clearReq(f uint32) {
	for {
		old := t.reqs.Load()
		if old&f == 0 || t.reqs.CompareAndSwap(old, old&^f) {
			return
		}
	}
}

// auxb returns the thread's aux block, allocating it if the thread
// has never had one. Threads obtained through Create always have one;
// the allocation covers zero-value handles defensively.
func (t *Thread) auxb() *threadAux {
	if t.aux == nil {
		t.aux = &threadAux{}
	}
	return t.aux
}

// ID implements thread_get_id for this thread handle.
func (t *Thread) ID() ThreadID { return t.id }

// Runtime returns the owning threads library instance.
func (t *Thread) Runtime() *Runtime { return t.m }

// State reports the thread's current state.
func (t *Thread) State() ThreadState {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.state
}

// Bound reports whether the thread is permanently bound to an LWP.
func (t *Thread) Bound() bool { return t.bndLWP != nil }

// BoundLWP returns the LWP a bound thread is permanently attached to,
// or nil for an unbound thread. Kernel scheduling controls that
// outlive a single dispatch — priocntl, pset_bind, processor_bind —
// only make sense against this LWP.
func (t *Thread) BoundLWP() *sim.LWP { return t.bndLWP }

func (t *Thread) bound() bool { return t.bndLWP != nil }

// LWP returns the LWP carrying the thread, with one atomic load: a
// bound thread's own LWP, an unbound thread's pool LWP while it is
// loaded, nil otherwise. It is for the thread itself, which is loaded
// whenever it runs and stays on that LWP until it parks, yields or
// exits — the handle it passes to the kernel calls it makes. Any other
// caller gets an answer that may be stale by the time it is used.
func (t *Thread) LWP() *sim.LWP { return t.carrier.Load() }

// unloadLocked takes an unbound thread off the pool LWP it is loaded
// on, if any, and returns that LWP for switchFrom. Caller holds m.mu.
func (t *Thread) unloadLocked() *poolLWP {
	pl := t.lwp
	if pl != nil {
		t.lwp = nil
		t.carrier.Store(nil)
	}
	return pl
}

// grant hands the CPU to the thread's goroutine.
func (t *Thread) grant() { t.gate <- struct{}{} }

// Create implements thread_create: it allocates the thread and makes
// it runnable (or stopped, with ThreadStop). Creation of an unbound
// thread involves no kernel call — the property behind the 42x ratio
// in the paper's Figure 5 — and in steady state no heap allocation
// either: the shell, its gate channel, its TSD/microstate block, its
// TLS block, and its stack reservation all come from the runtime's
// freelists, refilled by exiting threads.
func (m *Runtime) Create(fn Func, arg any, opts CreateOpts) (*Thread, error) {
	if fn == nil {
		return nil, fmt.Errorf("core: nil thread function")
	}
	m.mu.Lock()
	if m.dying.Load() {
		m.mu.Unlock()
		return nil, ErrExiting
	}
	if m.cfg.MaxThreads > 0 && m.nlive >= m.cfg.MaxThreads {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: %d live threads at cap %d: %w", m.nlive, m.cfg.MaxThreads, ErrAgain)
	}
	m.tlsFrozen = true
	// Stack: caller-supplied, else a reservation from the library's
	// cache (TLS lives in its own pooled block; a caller-supplied
	// stack carries TLS at its top so the library never calls malloc
	// on the caller's behalf).
	tlsSize := m.tlsSize
	var (
		span  stackSpan
		stack []byte
		tls   []byte
		own   bool
	)
	switch {
	case opts.Stack != nil:
		stack = opts.Stack
		if len(stack) < tlsSize {
			m.mu.Unlock()
			return nil, fmt.Errorf("core: stack smaller than thread-local storage (%d < %d)", len(stack), tlsSize)
		}
		if tlsSize > 0 {
			tls = stack[len(stack)-tlsSize:]
		}
	default:
		size := opts.StackSize
		if size <= 0 {
			size = m.cfg.DefaultStackSize
		}
		if m.kern.Chaos().StackFail() {
			m.mu.Unlock()
			return nil, fmt.Errorf("core: transient stack allocation failure: %w", ErrAgain)
		}
		var err error
		span, err = m.stackFromCacheLocked(int64(size))
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		own = true
		tls = m.tlsFromCacheLocked()
	}
	clear(tls) // TLS starts zeroed (paper)
	t := m.allocThreadLocked()
	m.nextID++
	t.m = m
	t.id = m.nextID
	t.flags = opts.Flags
	t.fn = fn
	t.arg = arg
	t.prio = 1
	if opts.Priority > 0 {
		t.prio = opts.Priority
	}
	t.effPrio.Store(int32(t.prio))
	t.stack = stack
	t.stkBase, t.stkSize = span.base, span.size
	t.stackOwn, t.stkTouched = own, span.touched
	t.tls = tls
	m.threads[t.id] = t
	m.nlive++
	if opts.Flags&ThreadDaemon != 0 {
		m.ndaemon++
	}
	bind := opts.Flags&ThreadBindLWP != 0
	now := m.kern.Clock().Now()
	if opts.Flags&ThreadStop != 0 {
		t.state = ThreadStopped
		t.setReq(tfStopReq)
		t.msInitLocked(now, MSStopped)
	} else {
		t.state = ThreadRunnable
		t.msInitLocked(now, MSRunq)
	}
	m.mu.Unlock()

	if opts.Flags&ThreadNewLWP != 0 && !bind {
		// THREAD_NEW_LWP increments the pool. A refused LWP refuses
		// the whole create, and the half-built thread is unwound so
		// a failed thr_create leaves no trace (EAGAIN semantics).
		if err := m.addPoolLWP(); err != nil {
			m.uncreate(t)
			return nil, err
		}
	}
	if bind {
		l, err := m.kern.NewLWP(m.proc, sim.ClassTS, 30)
		if err != nil {
			m.uncreate(t)
			return nil, err
		}
		t.bndLWP = l
		t.carrier.Store(l)
		m.exitWG.Add(1)
		m.mu.Lock()
		t.started = true
		m.mu.Unlock()
		go t.boundMain()
		return t, nil
	}
	if opts.Flags&ThreadStop == 0 {
		m.enqueue(t)
	}
	return t, nil
}

// uncreate unwinds a registered thread after a failed create (the
// LWP-acquiring tail of Create refused). The thread never ran and was
// never enqueued, so unwinding is pure deregistration: close its
// microstate interval, drop it from the thread table, and return its
// stack, TLS block, and shell to the freelists. Afterwards no runq
// link, sleepq link, turnstile, TLS block, or lock-graph vertex
// refers to it — the invariant the exhaustion chaos sweep asserts.
func (m *Runtime) uncreate(t *Thread) {
	m.mu.Lock()
	t.state = ThreadZombie
	t.msFinalLocked(m.kern.Clock().Now())
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	m.releaseStackLocked(t)
	m.pushFreeLocked(t)
	m.mu.Unlock()
}

// enqueue makes a newly created unbound thread runnable and finds it
// an LWP.
func (m *Runtime) enqueue(t *Thread) {
	var buf [1]*sim.LWP
	m.mu.Lock()
	if t.state == ThreadZombie || m.dying.Load() {
		m.mu.Unlock()
		return
	}
	m.readyLocked(t, m.kern.Clock().Now())
	kicks := m.placeLocked(1, int(t.effPrio.Load()), buf[:0])
	m.mu.Unlock()
	m.kick(kicks)
}

// readyLocked makes an unbound thread runnable and queues it. Finding
// it an LWP is placeLocked's job. Caller holds m.mu.
func (m *Runtime) readyLocked(t *Thread, now time.Duration) {
	t.state = ThreadRunnable
	t.msSwitchLocked(now, MSRunq)
	m.runq.push(t)
	m.rqPushes++
}

// placeLocked finds LWPs for n threads just queued, the best of them
// at priority prio: idle pool LWPs come off the idle list onto kicks
// (the caller unparks them once it has dropped m.mu), and if queued
// threads outnumber them the lowest-priority running thread beneath
// prio is asked to yield. Caller holds m.mu.
func (m *Runtime) placeLocked(n, prio int, kicks []*sim.LWP) []*sim.LWP {
	for ; n > 0 && len(m.idle) > 0; n-- {
		last := len(m.idle) - 1
		kicks = append(kicks, m.idle[last].l)
		m.idle = m.idle[:last]
	}
	if n > 0 {
		m.flagPreemptionLocked(prio)
	}
	return kicks
}

// kick unparks the LWPs a wake-up collected under m.mu.
func (m *Runtime) kick(ls []*sim.LWP) {
	for _, l := range ls {
		m.kern.Unpark(l)
	}
}

// flagPreemptionLocked marks the lowest-effective-priority running
// unbound thread for preemption if it is beneath prio.
func (m *Runtime) flagPreemptionLocked(prio int) {
	var victim *Thread
	for _, pl := range m.pool {
		if pl.cur != nil && (victim == nil || pl.cur.effPrio.Load() < victim.effPrio.Load()) {
			victim = pl.cur
		}
	}
	if victim != nil && int(victim.effPrio.Load()) < prio {
		victim.setReq(tfPreempt)
	}
}

// threadMain runs one incarnation of an unbound thread on the calling
// animator goroutine. It reports whether the goroutine may animate
// another thread afterwards: true after a normal retire, false when a
// kernel unwind (process death, exec) tore through the body.
func (t *Thread) threadMain() (reusable bool) {
	defer t.releaseOnUnwind()
	t.awaitDispatch() // first dispatch
	t.pollSignals()
	t.callBody()
	t.retire()
	return true
}

// callBody runs the thread function, turning Thread.Exit's panic into
// a normal return and any other panic into a simulated process abort.
// Kernel unwinds pass through untouched.
func (t *Thread) callBody() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if te, ok := r.(threadExitPanic); ok && te.t == t {
			return
		}
		if sim.IsUnwind(r) {
			panic(r)
		}
		t.abortProcess(r)
	}()
	t.fn(t, t.arg)
}

// abortProcess contains a panicking thread body: the panic becomes a
// fatal-SIGABRT-with-core death of the simulated process (observable
// through WaitExit), never a crash of the host binary or of any other
// simulated process. It does not return — Kernel.Abort unwinds, and
// the normal unwind recovery retires the LWP.
func (t *Thread) abortProcess(r any) {
	msg := fmt.Sprintf("thread %d panic: %v\n%s", t.id, r, debug.Stack())
	l := t.LWP()
	if l == nil {
		// The thread lost its LWP (it raced with process death);
		// unwind like any other torn-down thread.
		panic(&sim.Unwind{Proc: t.m.proc, Reason: "panic during teardown"})
	}
	t.m.kern.Abort(l, msg)
}

// releaseOnUnwind recovers a kernel unwind (process death, exec,
// exit) that tore through the thread body. It accounts the thread as
// gone and, crucially, switches off the LWP it was loaded on (found by
// the LWP's claim, pl.cur: the exiting last thread has already dropped
// its own t.lwp), so the pool goroutine blocked behind it gets the LWP
// back to unwind in its turn.
func (t *Thread) releaseOnUnwind() {
	r := recover()
	if r == nil {
		return
	}
	if !sim.IsUnwind(r) {
		panic(r)
	}
	m := t.m
	m.threadGone(t)
	m.mu.Lock()
	var pl *poolLWP
	for _, x := range m.pool {
		if x.cur == t {
			pl = x
			break
		}
	}
	m.switchFrom(pl, m.kern.Clock().Now())
	m.sweepIfDying()
}

// boundMain is the goroutine body of a bound thread: it animates its
// own LWP for the thread's whole life.
func (t *Thread) boundMain() {
	defer t.m.exitWG.Done()
	defer func() {
		r := recover()
		if r != nil && !sim.IsUnwind(r) {
			panic(r)
		}
		t.m.kern.ExitLWP(t.bndLWP)
		if r != nil {
			t.m.threadGone(t)
			t.m.sweepIfDying()
		}
	}()
	m := t.m
	m.kern.Start(t.bndLWP)
	m.kern.SetLWPMask(t.bndLWP, sim.SigSetMask, t.SigMask())
	m.touchStack(t) // first frame: commit the top of the stack carve
	m.mu.Lock()
	stopped := t.hasReq(tfStopReq)
	if !stopped {
		t.state = ThreadRunning
		t.msSwitchLocked(m.kern.Clock().Now(), MSUser)
	}
	m.mu.Unlock()
	if stopped {
		t.parkSelf(ThreadStopped)
	}
	t.pollSignals()
	t.callBody()
	t.retire()
}

// parkSelf blocks the calling thread with the given state until
// someone re-enqueues it. This is the user-level context switch: an
// unbound thread parks itself and loads its successor onto the LWP in
// one Runtime.mu section (switchFrom), with no kernel involvement. A
// wake permit left by an earlier Unpark (the wake raced ahead of the
// park) is consumed and the park elided, so the synchronization
// primitives built on park/unpark are race-free.
func (t *Thread) parkSelf(state ThreadState) {
	m := t.m
	m.mu.Lock()
	switch state {
	case ThreadSleeping, ThreadWaiting:
		if t.wakePermit && !t.bound() {
			t.wakePermit = false
			m.mu.Unlock()
			return
		}
	case ThreadStopped:
		// A thread_continue that raced ahead of this park wins:
		// the stop never takes effect.
		if !t.hasReq(tfStopReq) {
			m.mu.Unlock()
			return
		}
	}
	now := m.kern.Clock().Now()
	t.state = state
	t.msSwitchLocked(now, t.msParkState(state))
	if a := t.aux; state == ThreadStopped && a != nil {
		// Release thread_stop callers before the switch, so one of
		// them can be the successor. Unpark is a non-blocking kernel
		// call, allowed under m.mu.
		ws := a.stopWaiters
		a.stopWaiters = nil
		m.kick(m.unparkLocked(ws, now, nil))
	}
	if t.bound() {
		m.mu.Unlock()
		m.kern.Park(t.bndLWP) // kernel park has its own permit
		m.mu.Lock()
		t.state = ThreadRunning
		t.msSwitchLocked(m.kern.Clock().Now(), MSUser)
		m.mu.Unlock()
		t.stopIfRequested(state)
		return
	}
	pl := t.unloadLocked()
	m.rings.RecordAt(now, pl.l.CurCPU(), trace.EvThreadPark, int(m.proc.PID()), int(pl.l.ID()), int(t.id), uint64(state))
	m.switchFrom(pl, now)
	t.awaitDispatch()
	t.stopIfRequested(state)
}

// stopIfRequested honours a thread_stop that arrived while the thread
// was parked: the wake becomes a stop at this dispatch point rather
// than a resumption.
func (t *Thread) stopIfRequested(prev ThreadState) {
	// prev == ThreadStopped: the thread just woke from the stop itself.
	if prev != ThreadStopped && t.hasReq(tfStopReq) {
		t.parkSelf(ThreadStopped)
	}
}

// awaitDispatch blocks the calling goroutine until a dispatcher — the
// previous thread on the LWP, or the pool goroutine — grants the
// thread an LWP, and unwinds it if the wake raced with process death,
// whether the grant came from the dying sweep or from a dispatcher
// that lost the race. The unwind lands in releaseOnUnwind, which
// switches off whatever LWP the thread was loaded on; a plain return
// would strand that LWP. Lock-free: the grant orders the sweep's
// tfKilled store before this load.
func (t *Thread) awaitDispatch() {
	<-t.gate
	if t.hasReq(tfKilled) || t.m.dying.Load() {
		panic(&sim.Unwind{Proc: t.m.proc, Reason: "process dying"})
	}
}

// unparkInto re-enqueues a previously parked thread. If the thread
// has not parked yet (the wake raced ahead), a wake permit is left
// for its park to consume.
func (m *Runtime) unparkInto(t *Thread) {
	one := [1]*Thread{t}
	m.unparkBatch(one[:])
}

// Unpark makes a thread parked with Park runnable again (or leaves a
// wake permit if it has not parked yet). The synchronization package
// uses this as the wake half of its sleep queues.
func (t *Thread) Unpark() { t.m.unparkInto(t) }

// OnCPU reports whether the thread is running on a processor: loaded
// on an LWP, and that LWP holding a simulated CPU. A thread whose LWP
// is asleep in the kernel (poll, pipe I/O, a shared wait), parked, or
// preempted onto the kernel run queue is not running, loaded or not.
// Anyone may call it; the answer is two atomic loads and advisory —
// the adaptive mutex spins only while the lock owner reads as running.
func (t *Thread) OnCPU() bool {
	l := t.carrier.Load()
	return l != nil && l.CurCPU() >= 0
}

// UnparkAll wakes a batch of parked threads — the multi-thread wakeup
// of Cond.Broadcast, rwlock release, and thread exit. Threads of one
// runtime are re-enqueued in a single pass over the scheduler lock
// instead of one lock round-trip per waiter.
func UnparkAll(ts []*Thread) {
	for i := 0; i < len(ts); {
		m := ts[i].m
		j := i + 1
		for j < len(ts) && ts[j].m == m {
			j++
		}
		m.unparkBatch(ts[i:j])
		i = j
	}
}

// unparkBatch wakes a batch of this runtime's threads in one
// Runtime.mu critical section — the state check, the run-queue insert
// and the search for an LWP to run them all happen there — then kicks
// the LWPs involved outside the lock.
func (m *Runtime) unparkBatch(ts []*Thread) {
	if len(ts) == 0 {
		return
	}
	var buf [4]*sim.LWP
	m.mu.Lock()
	kicks := m.unparkLocked(ts, m.kern.Clock().Now(), buf[:0])
	m.mu.Unlock()
	m.kick(kicks)
}

// unparkLocked is the locked half of a wake-up: every parked thread
// of ts becomes runnable (a bound one by way of its LWP, appended to
// kicks; an unbound one on the run queue, with idle pool LWPs appended
// to kicks or one preemption flagged to serve it), and a thread that
// has not parked yet is left a wake permit. Caller holds m.mu and
// unparks the returned LWPs.
func (m *Runtime) unparkLocked(ts []*Thread, now time.Duration, kicks []*sim.LWP) []*sim.LWP {
	maxPrio := -1
	woken := 0
	for _, t := range ts {
		if t.bound() {
			if t.state != ThreadZombie {
				t.state = ThreadRunnable
				t.msSwitchLocked(now, MSRunq)
			}
			kicks = append(kicks, t.bndLWP)
			continue
		}
		switch t.state {
		case ThreadSleeping, ThreadWaiting:
			if m.dying.Load() {
				continue // the sweep owns these threads now
			}
			m.readyLocked(t, now)
			woken++
			if p := int(t.effPrio.Load()); p > maxPrio {
				maxPrio = p
			}
		case ThreadZombie:
		default:
			t.wakePermit = true
		}
	}
	return m.placeLocked(woken, maxPrio, kicks)
}

// Park blocks the calling thread as sleeping on a synchronization
// object until Unpark. For an unbound thread this switches to another
// thread with no kernel involvement.
func (t *Thread) Park() { t.parkSelf(ThreadSleeping) }

// Yield gives up the processor to a higher- or equal-priority thread,
// if any (thr_yield). For an unbound thread this is a pure user-level
// operation unless the run queue is empty.
func (t *Thread) Yield() {
	m := t.m
	if t.bound() {
		m.kern.Yield(t.bndLWP)
	} else if !t.requeueSelf() {
		// Nothing else to run; let the kernel checkpoint.
		if l := t.LWP(); l != nil {
			m.kern.Checkpoint(l)
		}
	}
	t.Checkpoint()
}

// requeueSelf puts the calling unbound thread back on the run queue
// and switches to the best runnable thread — possibly itself. It joins
// the tail of its level, so it cannot outrun earlier-queued equals. It
// reports false, having changed nothing, when no other thread is
// runnable.
func (t *Thread) requeueSelf() bool {
	m := t.m
	m.mu.Lock()
	if m.runq.len() == 0 {
		m.mu.Unlock()
		return false
	}
	now := m.kern.Clock().Now()
	pl := t.unloadLocked()
	m.readyLocked(t, now)
	m.switchFrom(pl, now)
	t.awaitDispatch()
	return true
}

// Checkpoint is the thread-level preemption point: it honours stop
// requests, library preemption flags, pending thread signals, and
// kernel checkpoints. Synchronization operations call it. With no
// request pending and no signal deliverable it is one kernel section:
// it never takes Runtime.mu and reads the clock once.
func (t *Thread) Checkpoint() {
	m := t.m
	reqs := t.reqs.Load()
	preempt := reqs&tfPreempt != 0
	if preempt {
		t.clearReq(tfPreempt)
	}
	if reqs&tfStopReq != 0 {
		t.parkSelf(ThreadStopped)
	}
	if !t.bound() {
		// Chaos: force the thread back onto the run queue as if a
		// higher-priority thread had flagged it; requeueSelf only
		// switches when another thread is actually runnable.
		if preempt || m.kern.Chaos().ThreadPreempt() {
			t.requeueSelf()
		}
	}
	l := t.LWP()
	// Thread-directed signals (thread_kill) pend at the library level,
	// invisible to the kernel checkpoint: poll for either kind.
	if (l != nil && m.kern.Checkpoint(l)) || t.hasReq(tfSigPending) {
		t.pollSignals()
	}
}

// Exit implements thread_exit for the calling thread: it terminates
// the thread and deallocates library resources. It never returns (it
// unwinds to the thread's entry frame).
func (t *Thread) Exit() {
	panic(threadExitPanic{t})
}

type threadExitPanic struct{ t *Thread }

// retire is the common end-of-life path, run on the thread's own
// goroutine after its body returns (or Exit unwinds). It allocates
// nothing: the single thread_wait waiter is dequeued in place, every
// thread's stack and TLS go straight back to their caches, and an
// unwaited thread's shell to the freelist.
func (t *Thread) retire() {
	t.runTSDDestructors()
	m := t.m
	m.mu.Lock()
	if t.state == ThreadZombie {
		m.mu.Unlock()
		return
	}
	t.state = ThreadZombie
	t.msFinalLocked(m.kern.Clock().Now())
	m.dropTurnstilesLocked(t)
	pl := t.unloadLocked()
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	last := m.nlive-m.ndaemon == 0 && !m.dying.Load()
	if pl != nil && !last {
		// The shell may be recycled — and its next incarnation loaded
		// on another LWP — before this goroutine reaches switchFrom
		// below; drop this LWP's claim now so releaseOnUnwind can never
		// match the stale one. The last thread keeps the claim: its
		// exit unwinds through releaseOnUnwind, which finds pl by it.
		pl.cur = nil
	}
	bound := t.bound()
	bl := t.bndLWP
	var single *Thread
	var wake, stoppers []*Thread
	if a := t.aux; a != nil {
		// thread_stop callers still waiting for this thread to stop:
		// its exit ends their wait instead.
		stoppers, a.stopWaiters = a.stopWaiters, nil
	}
	m.releaseStackLocked(t)
	if t.flags&ThreadWait != 0 {
		// The shell lives on as a zombie until thread_wait reaps it.
		// At most one waiter can be parked on waitWC (double waits
		// are ErrDoubleWait), so a single dequeue suffices.
		m.zombies[t.id] = t
		single = t.waitWC.DequeueOne()
		wake = m.anyWC.DequeueAll()
	} else if !last {
		// Never waited for: recycle the shell now. After this point
		// t may be handed to a concurrent Create, so only the locals
		// above are used below. The last thread's shell is kept out
		// of the freelist — its process-exit unwind still inspects t
		// in releaseOnUnwind/threadGone.
		m.pushFreeLocked(t)
	}
	m.mu.Unlock()
	if single != nil {
		m.unparkInto(single)
	}
	m.unparkBatch(wake)
	m.unparkBatch(stoppers)
	if last && !m.proc.Dying() {
		// The last non-daemon thread exited: the process exits,
		// destroying all LWPs. The kernel unwind is caught by
		// releaseOnUnwind, which hands the LWP back to its pool
		// goroutine for its own unwinding.
		l := bl
		if l == nil && pl != nil {
			l = pl.l
		}
		if l != nil {
			m.kern.Exit(l, 0)
		}
		return
	}
	if bound {
		return // boundMain's defer retires the LWP
	}
	m.mu.Lock()
	m.switchFrom(pl, m.kern.Clock().Now())
}

// ExitProcess implements exit(2) from a thread: all threads and LWPs
// in the process are destroyed (paper: "if one thread calls exit(),
// all threads are destroyed"). It never returns.
func (t *Thread) ExitProcess(status int) {
	l := t.LWP()
	if l == nil {
		panic("core: ExitProcess outside a running thread")
	}
	t.m.kern.Exit(l, status)
}

// SetForkContinuation registers the function a full fork() re-creates
// this thread with in the child process. Goroutine stacks cannot be
// cloned in Go, so duplicated threads resume from an explicit
// continuation rather than mid-stack; threads without one simply do
// not reappear in the child (see DESIGN.md).
func (t *Thread) SetForkContinuation(fn Func, arg any) {
	t.m.mu.Lock()
	a := t.auxb()
	a.forkCont = fn
	a.forkArg = arg
	t.m.mu.Unlock()
}

// ForkContinuation returns the registered continuation, if any.
func (t *Thread) ForkContinuation() (Func, any) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	a := t.auxb()
	return a.forkCont, a.forkArg
}

// Exec implements the thread side of exec(2): it detaches the calling
// thread from the pool, performs the kernel exec (destroying every
// other LWP and, cooperatively, every other thread), tears down this
// runtime's user-level state, and returns the fresh LWP 0 from which
// the caller builds the new image's runtime. The calling thread must
// call Exit (or return) immediately afterwards.
func (t *Thread) Exec(name string) (*sim.LWP, error) {
	m := t.m
	k := m.kern
	// Move onto a private LWP so the pool dispatcher gets its LWP
	// back and can be torn down like the rest.
	l2, err := k.NewLWP(m.proc, sim.ClassTS, 30)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	pl := t.unloadLocked()
	t.bndLWP = l2
	t.carrier.Store(l2)
	m.switchFrom(pl, m.kern.Clock().Now())
	k.Start(l2)
	nl, err := k.Exec(l2, name)
	if err != nil {
		return nil, err
	}
	m.Shutdown()
	return nl, nil
}

// threadGone is the idempotent forced-retirement used when a kernel
// unwind (process death) tears a thread down outside retire.
func (m *Runtime) threadGone(t *Thread) {
	m.mu.Lock()
	if t.state == ThreadZombie {
		m.mu.Unlock()
		return
	}
	t.state = ThreadZombie
	t.msFinalLocked(m.kern.Clock().Now())
	m.dropTurnstilesLocked(t)
	t.unloadLocked()
	m.runq.remove(t)
	delete(m.threads, t.id)
	m.nlive--
	if t.flags&ThreadDaemon != 0 {
		m.ndaemon--
	}
	m.mu.Unlock()
	// A torn-down thread may still be linked on a sleep queue (it was
	// parked on a primitive when the process died); unlink it so the
	// global sharded table does not retain it.
	sleepqDetach(t)
}
