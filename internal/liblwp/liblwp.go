// Package liblwp reproduces the SunOS 4.0 LWP library the paper
// compares against [Kepecs 1985]: a classic user-level-only threads
// package with no kernel support. Its "LWPs" (green threads — the
// name collision the paper's footnote apologizes for) are multiplexed
// on a single kernel-supported LWP; they synchronize without kernel
// involvement, but if any of them makes a blocking system call or
// takes a page fault, the entire application blocks.
//
// A non-blocking I/O shim (NBRead/NBWrite) mimics the standard I/O
// interfaces using readiness polling so the package can switch green
// threads while one waits for an indefinite I/O — exactly the
// mitigation the paper describes, and exactly as partial: page faults
// and any un-shimmed call still stall everything.
//
// This package exists as the measured baseline (process 2 of the
// paper's Figure 3) and to demonstrate why the two-level
// architecture supersedes it.
package liblwp

import (
	"errors"
	"fmt"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
)

// GThread is a green thread of the 4.0 library.
type GThread struct {
	pkg  *Pkg
	id   int
	gate chan struct{}
	done bool
	fn   func(*GThread)
	// blocked marks a green thread parked on a package-level
	// synchronization object.
	blocked bool
}

// ID returns the green thread's id.
func (g *GThread) ID() int { return g.id }

// Pkg returns the owning library instance.
func (g *GThread) Pkg() *Pkg { return g.pkg }

// Pkg is one instance of the library: a single kernel LWP multiplexing
// all green threads of the application.
type Pkg struct {
	kern *sim.Kernel
	proc *sim.Process
	lwp  *sim.LWP
	pf   *vfs.ProcFiles

	sched  chan struct{} // scheduler gate
	runq   []*GThread
	nextID int
	nlive  int
	cur    *GThread
}

// New creates the package for a process. pf may be nil if no file I/O
// is used.
func New(kern *sim.Kernel, proc *sim.Process, pf *vfs.ProcFiles) (*Pkg, error) {
	l, err := kern.NewLWP(proc, sim.ClassTS, 30)
	if err != nil {
		return nil, err
	}
	return &Pkg{kern: kern, proc: proc, lwp: l, pf: pf, sched: make(chan struct{}, 1)}, nil
}

// Create adds a green thread. Creation is pure user-level work.
func (p *Pkg) Create(fn func(*GThread)) *GThread {
	p.nextID++
	g := &GThread{pkg: p, id: p.nextID, gate: make(chan struct{}, 1), fn: fn}
	p.nlive++
	p.runq = append(p.runq, g)
	return g
}

// Run animates the single kernel LWP, scheduling green threads until
// none remain. main is created as the first green thread.
func (p *Pkg) Run(main func(*GThread)) error {
	if main == nil {
		return errors.New("liblwp: nil main")
	}
	p.Create(main)
	defer func() {
		r := recover()
		p.kern.ExitLWP(p.lwp)
		if r != nil && !sim.IsUnwind(r) {
			panic(r)
		}
	}()
	p.kern.Start(p.lwp)
	for p.nlive > 0 {
		g := p.pick()
		if g == nil {
			// Everything blocked on package-level sync with no
			// runnable green thread: classic liblwp deadlock.
			return errors.New("liblwp: all green threads blocked (deadlock)")
		}
		p.cur = g
		if g.fn != nil {
			fn := g.fn
			g.fn = nil
			go func() {
				defer func() {
					r := recover()
					if r != nil && !sim.IsUnwind(r) {
						panic(r)
					}
					g.done = true
					p.sched <- struct{}{}
				}()
				<-g.gate
				fn(g)
			}()
		}
		g.gate <- struct{}{}
		<-p.sched
		p.cur = nil
		if g.done {
			p.nlive--
		}
		p.kern.Checkpoint(p.lwp)
	}
	return nil
}

func (p *Pkg) pick() *GThread {
	for i, g := range p.runq {
		if !g.blocked {
			p.runq = append(p.runq[:i], p.runq[i+1:]...)
			return g
		}
	}
	return nil
}

// yieldToScheduler hands the kernel LWP back to the scheduler loop
// and waits to be re-dispatched.
func (g *GThread) yieldToScheduler(requeue bool) {
	if requeue {
		g.pkg.runq = append(g.pkg.runq, g)
	}
	g.pkg.sched <- struct{}{}
	<-g.gate
}

// Yield lets another green thread run.
func (g *GThread) Yield() { g.yieldToScheduler(true) }

// block parks the green thread until Unblock.
func (g *GThread) block() {
	g.blocked = true
	g.pkg.runq = append(g.pkg.runq, g)
	g.pkg.sched <- struct{}{}
	<-g.gate
}

// unblock marks a parked green thread runnable.
func (g *GThread) unblock() { g.blocked = false }

// Read performs a standard blocking read on the single kernel LWP: if
// it blocks, the ENTIRE application blocks — no other green thread
// runs, the library's fundamental limitation.
func (g *GThread) Read(fd int, b []byte) (int, error) {
	return g.pkg.pf.Read(g.pkg.lwp, fd, b)
}

// Write is the blocking write counterpart of Read.
func (g *GThread) Write(fd int, b []byte) (int, error) {
	return g.pkg.pf.Write(g.pkg.lwp, fd, b)
}

// NBRead is the non-blocking I/O library shim: it polls for readiness
// with a bounded wait and switches green threads between probes, so
// an indefinite I/O by one green thread does not stall the others.
func (g *GThread) NBRead(fd int, b []byte) (int, error) {
	for {
		fds := []vfs.PollFD{{FD: fd, Events: vfs.PollIn}}
		n, err := g.pkg.pf.Poll(g.pkg.lwp, fds, time.Millisecond)
		if err != nil {
			return 0, err
		}
		if n > 0 {
			return g.pkg.pf.Read(g.pkg.lwp, fd, b)
		}
		g.Yield()
	}
}

// --- package-level synchronization (no kernel involvement) ---------------

// Mon is a simple monitor lock of the 4.0 library. Because all green
// threads share one kernel LWP, mutual exclusion needs no atomics at
// all — only yield discipline.
type Mon struct {
	held    bool
	waiters []*GThread
}

// Enter acquires the monitor.
func (m *Mon) Enter(g *GThread) {
	for m.held {
		m.waiters = append(m.waiters, g)
		g.block()
	}
	m.held = true
}

// Exit releases the monitor.
func (m *Mon) Exit(g *GThread) {
	if !m.held {
		panic("liblwp: Exit of unheld monitor")
	}
	m.held = false
	for _, w := range m.waiters {
		w.unblock()
	}
	m.waiters = nil
}

// Sema is the 4.0 library counting semaphore.
type Sema struct {
	count   int
	waiters []*GThread
}

// Init sets the count.
func (s *Sema) Init(n int) { s.count = n }

// P decrements, blocking at zero.
func (s *Sema) P(g *GThread) {
	for s.count == 0 {
		s.waiters = append(s.waiters, g)
		g.block()
	}
	s.count--
}

// V increments, waking waiters.
func (s *Sema) V(g *GThread) {
	s.count++
	for _, w := range s.waiters {
		w.unblock()
	}
	s.waiters = nil
}

// String identifies the package in traces.
func (p *Pkg) String() string { return fmt.Sprintf("liblwp(pid %d)", p.proc.PID()) }
