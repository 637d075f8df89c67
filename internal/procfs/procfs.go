// Package procfs reproduces the paper's /proc extension [Faulkner
// 1991]: the process file system reflects the multi-threaded process
// model. A kernel interface can expose only kernel-supported threads
// of control — LWPs — so /proc publishes per-process and per-LWP
// status nodes; debugger control of library threads is accomplished
// by cooperation between the debugger and the threads library, for
// which the library registers a thread lister here.
//
// Layout (all nodes are synthetic, generated at open time):
//
//	/proc/sched               per-CPU dispatcher queues: processor
//	                          set, queue depth, dispatch/steal/
//	                          migration counters, balancer moves
//	/proc/<pid>/status        process summary
//	/proc/<pid>/lwps          one line per LWP
//	/proc/<pid>/psinfo        scheduling placement per LWP: class,
//	                          priority, processor set, CPU binding
//	/proc/<pid>/threads       one line per library thread (via the
//	                          registered lister; absent without one)
//	/proc/<pid>/lstatus       lock wait-for edges of the process's
//	                          threads and any deadlock cycles the
//	                          system-wide detector finds
//	/proc/<pid>/health        deadman-watchdog report: LWPs stuck
//	                          on-CPU and threads blocked past the
//	                          configured deadline
//
// Mount attaches the tree; Refresh regenerates the directory for the
// current process table (the tree is a snapshot, like reading /proc
// with ls).
package procfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
	"sunosmt/internal/vm"
)

// ProcFS serves /proc for one kernel.
type ProcFS struct {
	kern *sim.Kernel
	fs   *vfs.FS

	mu      sync.Mutex
	listers map[sim.PID]*core.Runtime
}

// Mount creates /proc in fs and returns the server. Call Refresh to
// (re)populate it.
func Mount(kern *sim.Kernel, fs *vfs.FS) (*ProcFS, error) {
	pfs := &ProcFS{kern: kern, fs: fs, listers: make(map[sim.PID]*core.Runtime)}
	if err := fs.Mkdir("/", "/proc"); err != nil {
		return nil, err
	}
	return pfs, nil
}

// RegisterRuntime registers the threads library instance of a process
// so debuggers can enumerate its user-level threads — the
// library/debugger cooperation of the paper.
func (pfs *ProcFS) RegisterRuntime(rt *core.Runtime) {
	pfs.mu.Lock()
	pfs.listers[rt.Process().PID()] = rt
	pfs.mu.Unlock()
}

// Refresh rebuilds the /proc tree to match the current process table.
func (pfs *ProcFS) Refresh() error {
	root := vfs.NewDir()
	pfs.attach(root, "sched", func() []byte { return pfs.schedStatus() })
	for _, p := range pfs.kern.Processes() {
		p := p
		dir := vfs.NewDir()
		pfs.attach(dir, "status", func() []byte { return pfs.procStatus(p) })
		pfs.attach(dir, "lwps", func() []byte { return pfs.lwpStatus(p) })
		pfs.attach(dir, "psinfo", func() []byte { return pfs.psinfo(p) })
		pfs.mu.Lock()
		rt := pfs.listers[p.PID()]
		pfs.mu.Unlock()
		pfs.attach(dir, "usage", func() []byte { return pfs.usage(p, rt) })
		if rt != nil {
			pfs.attach(dir, "threads", func() []byte { return pfs.threadStatus(rt) })
			pfs.attach(dir, "lstatus", func() []byte { return pfs.lockStatus(rt) })
			pfs.attach(dir, "health", func() []byte { return pfs.health(rt) })
		}
		pfs.attachDir(root, fmt.Sprintf("%d", p.PID()), dir)
	}
	return pfs.fs.Attach("/", "/proc", root)
}

func (pfs *ProcFS) attach(d *vfs.Dir, name string, gen func() []byte) {
	pfs.attachNode(d, name, &vfs.SynthFile{Gen: gen})
}

func (pfs *ProcFS) attachDir(d *vfs.Dir, name string, child *vfs.Dir) {
	pfs.attachNode(d, name, child)
}

func (pfs *ProcFS) attachNode(d *vfs.Dir, name string, n vfs.Node) {
	// Dir children maps are unexported; go through a tiny scratch
	// FS bound to d as root.
	scratch := vfs.WrapDir(pfs.kern, d)
	scratch.Attach("/", "/"+name, n)
}

func (pfs *ProcFS) procStatus(p *sim.Process) []byte {
	r := p.Getrusage()
	var sb strings.Builder
	fmt.Fprintf(&sb, "pid:\t%d\n", p.PID())
	fmt.Fprintf(&sb, "comm:\t%s\n", p.Name())
	if pp := p.Parent(); pp != nil {
		fmt.Fprintf(&sb, "ppid:\t%d\n", pp.PID())
	} else {
		fmt.Fprintf(&sb, "ppid:\t0\n")
	}
	fmt.Fprintf(&sb, "state:\t%v\n", p.State())
	fmt.Fprintf(&sb, "nlwp:\t%d\n", r.LiveLWPs)
	fmt.Fprintf(&sb, "utime:\t%v\n", r.UserTime)
	fmt.Fprintf(&sb, "stime:\t%v\n", r.SysTime)
	fmt.Fprintf(&sb, "minflt:\t%d\n", r.MinorFaults)
	fmt.Fprintf(&sb, "majflt:\t%d\n", r.MajorFaults)
	// Address-space accounting under the reserve/commit split:
	// vmres is carved address space (vsize), vmcom the first-touch
	// committed bytes (the simulated RSS), vmpeak its high-water
	// mark. A million idle threads show a large vmres and a tiny
	// vmcom — the overcommit the lazily-committed stacks buy.
	if as, ok := p.Mem.(*vm.AddressSpace); ok && as != nil {
		fmt.Fprintf(&sb, "vmres:\t%d\n", as.Reserved())
		fmt.Fprintf(&sb, "vmcom:\t%d\n", as.Committed())
		fmt.Fprintf(&sb, "vmpeak:\t%d\n", as.PeakCommitted())
	}
	return []byte(sb.String())
}

func (pfs *ProcFS) lwpStatus(p *sim.Process) []byte {
	lwps := p.LWPs()
	sort.Slice(lwps, func(i, j int) bool { return lwps[i].ID() < lwps[j].ID() })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-10s %-6s %-10s %-10s %s\n", "LWPID", "STATE", "CLASS", "UTIME", "STIME", "WCHAN")
	for _, l := range lwps {
		u, s := l.Usage()
		wchan := l.Wchan()
		if wchan == "" {
			wchan = "-"
		}
		fmt.Fprintf(&sb, "%-6d %-10v %-6v %-10v %-10v %s\n", l.ID(), l.State(), l.Class(), u, s, wchan)
	}
	return []byte(sb.String())
}

// schedStatus renders the machine-wide dispatcher view: one row per
// CPU with its processor set, instantaneous queue depth (and how many
// of those are hard-bound, hence unstealable), and the monotonic
// dispatch/steal/migration counters, followed by the processor sets
// and the balancer's move count.
func (pfs *ProcFS) schedStatus() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-5s %-6s %-6s %-10s %-8s %s\n",
		"CPU", "PSET", "RUNQ", "BOUND", "DISPATCH", "STEAL", "MIGRATE")
	for _, cs := range pfs.kern.SchedStats() {
		fmt.Fprintf(&sb, "%-4d %-5d %-6d %-6d %-10d %-8d %d\n",
			cs.CPU, cs.Pset, cs.RunqDepth, cs.RunqBound, cs.Dispatches, cs.Steals, cs.Migrations)
	}
	for _, ps := range pfs.kern.Psets() {
		fmt.Fprintf(&sb, "pset %d: cpus %v bound-lwps %d\n", ps.ID, ps.CPUs, ps.BoundLWPs)
	}
	fmt.Fprintf(&sb, "balance-moves: %d\n", pfs.kern.BalanceMoves())
	return []byte(sb.String())
}

// psinfo renders the scheduling placement of each LWP: class, user
// priority, the processor set it is confined to, and the CPU it is
// hard-bound to (- when unbound) — the psrset/pbind view.
func (pfs *ProcFS) psinfo(p *sim.Process) []byte {
	lwps := p.LWPs()
	sort.Slice(lwps, func(i, j int) bool { return lwps[i].ID() < lwps[j].ID() })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-6s %-6s %-6s %s\n", "LWPID", "CLASS", "PRIO", "PSET", "BOUND-CPU")
	for _, l := range lwps {
		bound := "-"
		if c := l.BoundCPU(); c >= 0 {
			bound = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(&sb, "%-6d %-6v %-6d %-6d %s\n", l.ID(), l.Class(), l.Priority(), l.Pset(), bound)
	}
	return []byte(sb.String())
}

// usage renders the Solaris prusage-style microstate accounting view:
// process totals aggregated over the live LWPs, one line per LWP, and
// — when the threads library registered itself — one line per library
// thread. Per-row times always sum exactly to the row's TOTAL.
func (pfs *ProcFS) usage(p *sim.Process, rt *core.Runtime) []byte {
	lwps := p.LWPs()
	sort.Slice(lwps, func(i, j int) bool { return lwps[i].ID() < lwps[j].ID() })
	var sb strings.Builder
	var agg sim.LWPMicrostates
	rows := make([]sim.LWPMicrostates, len(lwps))
	for i, l := range lwps {
		u := l.Microstates()
		rows[i] = u
		agg.OnCPU += u.OnCPU
		agg.Runq += u.Runq
		agg.Sleep += u.Sleep
		agg.Park += u.Park
		agg.Stopped += u.Stopped
		agg.Embryo += u.Embryo
		agg.Total += u.Total
	}
	fmt.Fprintf(&sb, "pid:\t%d\n", p.PID())
	fmt.Fprintf(&sb, "oncpu:\t%v\nrunq:\t%v\nsleep:\t%v\npark:\t%v\nstopped:\t%v\nembryo:\t%v\ntotal:\t%v\n",
		agg.OnCPU, agg.Runq, agg.Sleep, agg.Park, agg.Stopped, agg.Embryo, agg.Total)
	fmt.Fprintf(&sb, "%-6s %-10s %-12s %-12s %-12s %-12s %-12s %s\n",
		"LWPID", "STATE", "ONCPU", "RUNQ", "SLEEP", "PARK", "STOP", "TOTAL")
	for i, l := range lwps {
		u := rows[i]
		fmt.Fprintf(&sb, "%-6d %-10v %-12v %-12v %-12v %-12v %-12v %v\n",
			l.ID(), u.State, u.OnCPU, u.Runq, u.Sleep, u.Park, u.Stopped, u.Total)
	}
	if rt != nil {
		threads := rt.Threads()
		sort.Slice(threads, func(i, j int) bool { return threads[i].ID() < threads[j].ID() })
		fmt.Fprintf(&sb, "%-6s %-10s %-12s %-12s %-12s %-12s %-12s %s\n",
			"TID", "STATE", "USER", "RUNQ", "SLEEP", "LOCK", "STOP", "TOTAL")
		for _, t := range threads {
			ms := t.Microstates()
			fmt.Fprintf(&sb, "%-6d %-10v %-12v %-12v %-12v %-12v %-12v %v\n",
				t.ID(), ms.State, ms.User, ms.Runq, ms.Sleep, ms.Lock, ms.Stopped, ms.Total)
		}
	}
	return []byte(sb.String())
}

func (pfs *ProcFS) threadStatus(rt *core.Runtime) []byte {
	threads := rt.Threads()
	sort.Slice(threads, func(i, j int) bool { return threads[i].ID() < threads[j].ID() })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-10s %-6s %-6s %-6s %s\n", "TID", "STATE", "PRIO", "EPRI", "BOUND", "BLOCKED-ON")
	for _, t := range threads {
		blocked := "-"
		if bi := t.BlockedOn(); bi != nil {
			blocked = bi.Kind + ":" + bi.Name
		}
		fmt.Fprintf(&sb, "%-6d %-10v %-6d %-6d %-6v %s\n", t.ID(), t.State(), t.Priority(), t.EffPriority(), t.Bound(), blocked)
	}
	fmt.Fprintf(&sb, "pool-lwps: %d  runnable: %d\n", rt.PoolSize(), rt.RunnableThreads())
	depth, occ := rt.RunqStats()
	fmt.Fprintf(&sb, "runq-depth: %d  occupancy:", depth)
	if len(occ) == 0 {
		sb.WriteString(" -")
	}
	for _, pc := range occ {
		fmt.Fprintf(&sb, " prio%d:%d", pc.Prio, pc.Count)
	}
	// How threads left their LWPs: handing it straight to a successor
	// popped from this queue, or back to the pool goroutine.
	sw := rt.SwitchStats()
	fmt.Fprintf(&sb, "  switches: direct %d fallback %d mask-pushes %d\n", sw.Direct, sw.Fallback, sw.MaskPushes)
	q := rt.DispatchStats()[0]
	fmt.Fprintf(&sb, "runq: depth %d  pushes %d  pops %d\n", q.Depth, q.Pushes, q.Pops)
	return []byte(sb.String())
}

// lockStatus renders the process's outgoing wait-for edges with
// resolved owners, then runs the system-wide deadlock detector over
// every registered runtime and reports the cycles that involve this
// process.
func (pfs *ProcFS) lockStatus(rt *core.Runtime) []byte {
	pid := rt.Process().PID()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-8s %-20s %-10s %s\n", "TID", "KIND", "OBJECT", "POLICY", "OWNER")
	for _, w := range rt.LockWaiters() {
		owner := "-"
		if w.HasOwner {
			opid := w.Owner.PID
			if opid == 0 {
				opid = pid
			}
			owner = fmt.Sprintf("%d/%d", opid, w.Owner.TID)
		}
		policy := w.Policy
		if policy == "" {
			policy = "-"
		}
		fmt.Fprintf(&sb, "%-6d %-8s %-20s %-10s %s\n", w.TID, w.Kind, w.Name, policy, owner)
	}
	cycles := core.DetectDeadlocks(pfs.runtimes())
	n := 0
	for _, d := range cycles {
		involved := false
		for _, node := range d.Nodes {
			if node.PID == pid {
				involved = true
				break
			}
		}
		if !involved {
			continue
		}
		n++
		fmt.Fprintf(&sb, "deadlock: %s\n", d)
	}
	fmt.Fprintf(&sb, "deadlocks: %d\n", n)
	return []byte(sb.String())
}

// health renders the deadman-watchdog report: one line per LWP stuck
// on-CPU past the deadline and one per thread blocked or sleeping
// past it, headed by an ok/stuck status line.
func (pfs *ProcFS) health(rt *core.Runtime) []byte {
	rep := rt.Health(0)
	var sb strings.Builder
	fmt.Fprintf(&sb, "deadline:\t%v\n", rep.Deadline)
	if rep.Healthy() {
		fmt.Fprintf(&sb, "status:\tok\n")
		return []byte(sb.String())
	}
	fmt.Fprintf(&sb, "status:\tstuck (%d lwps, %d threads)\n",
		len(rep.StuckLWPs), len(rep.StuckThreads))
	for _, lh := range rep.StuckLWPs {
		fmt.Fprintf(&sb, "lwp %d: on-cpu %v (cpu %d, %d ring dispatches)\n",
			lh.ID, lh.OnCPUFor, lh.CPU, lh.Dispatches)
	}
	for _, th := range rep.StuckThreads {
		on := th.BlockedOn
		if on == "" {
			on = "-"
		}
		fmt.Fprintf(&sb, "thread %d: %v %v blocked-on %s\n",
			th.ID, th.State, th.StuckFor, on)
	}
	return []byte(sb.String())
}

// runtimes snapshots every registered threads-library instance, in
// pid order so detection passes are deterministic.
func (pfs *ProcFS) runtimes() []*core.Runtime {
	pfs.mu.Lock()
	rts := make([]*core.Runtime, 0, len(pfs.listers))
	for _, rt := range pfs.listers {
		rts = append(rts, rt)
	}
	pfs.mu.Unlock()
	sort.Slice(rts, func(i, j int) bool { return rts[i].Process().PID() < rts[j].Process().PID() })
	return rts
}
