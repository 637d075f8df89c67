// Package benchkit implements the measurement procedures of the
// paper's Performance section, shared by the root bench_test.go and
// cmd/mtbench (which prints the paper's Figure 5 and Figure 6 tables
// with the same rows and ratio columns).
//
// The paper measured a 25 MHz SPARCstation 1+ with a microsecond
// timer; we measure the simulation substrate on the host clock.
// Absolute numbers are not comparable — EXPERIMENTS.md records both —
// but the *shape* (which operations involve the kernel and are an
// order of magnitude heavier) is the reproduced result.
package benchkit

import (
	"fmt"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

// noop is the empty thread body used by creation benchmarks.
func noop(*mt.Thread, any) {}

// UnboundCreate measures creating n unbound threads with a cached
// default stack (the Figure 5 "Unbound thread create" row: creation
// time only, no first context switch, no kernel involvement).
//
// Each thread gets its own stack from the library's cache: thread
// local storage is carved from the top of the stack, so handing every
// thread the same caller-supplied slice would alias their TLS.
func UnboundCreate(n int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	var elapsed time.Duration
	done := make(chan struct{})
	var p *mt.Proc
	var err error
	p, err = sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		const batch = 8192
		for remaining := n; remaining > 0; {
			k := min(batch, remaining)
			start := time.Now()
			for i := 0; i < k; i++ {
				if _, err := r.Create(noop, nil, mt.CreateOpts{}); err != nil {
					panic(err)
				}
			}
			elapsed += time.Since(start)
			remaining -= k
			// Drain outside the timed region so queued threads
			// do not accumulate without bound.
			for r.RunnableThreads() > 0 {
				t.Yield()
			}
		}
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// BoundCreate measures creating n bound threads (the Figure 5 "Bound
// thread create" row): each creation calls into the kernel to create
// an LWP to run the thread.
func BoundCreate(n int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	var elapsed time.Duration
	done := make(chan struct{})
	var p *mt.Proc
	var err error
	p, err = sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		const batch = 256
		for remaining := n; remaining > 0; {
			k := min(batch, remaining)
			created := make([]*mt.Thread, 0, k)
			start := time.Now()
			for i := 0; i < k; i++ {
				c, err := r.Create(noop, nil, mt.CreateOpts{
					Flags: mt.ThreadWait | mt.ThreadBindLWP,
				})
				if err != nil {
					panic(err)
				}
				created = append(created, c)
			}
			elapsed += time.Since(start)
			remaining -= k
			for _, c := range created {
				t.Wait(c.ID())
			}
		}
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// SetjmpLongjmp measures the paper's baseline for thread switching: a
// routine that does a setjmp() and longjmp() to itself.
func SetjmpLongjmp(n int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 1})
	var elapsed time.Duration
	done := make(chan struct{})
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		start := time.Now()
		for i := 0; i < n; i++ {
			t.Setjmp(func(jb *mt.Jmpbuf) {
				t.Longjmp(jb, 1)
			})
		}
		elapsed = time.Since(start)
	}, nil, mt.ProcConfig{})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// SyncPingPong measures the paper's Figure 6 synchronization
// procedure: two threads synchronize via two semaphores
// (sema_v(&s1); sema_p(&s2) against sema_p(&s2); sema_v(&s1)), so n
// rounds contain 2n synchronizations. bound selects bound threads
// (each on its own LWP, blocking through the kernel) versus unbound
// threads multiplexed on one LWP (pure user-level switching).
func SyncPingPong(n int, bound bool) time.Duration {
	// Uniprocessor, like the paper's measurement machine: bound-thread
	// synchronization must context-switch through the kernel.
	sys := mt.NewSystem(mt.Options{NCPU: 1})
	var elapsed time.Duration
	done := make(chan struct{})
	var s1, s2 mt.Sema
	flags := mt.ThreadWait
	if bound {
		flags |= mt.ThreadBindLWP
	}
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		t2, err := r.Create(func(c *mt.Thread, _ any) {
			for i := 0; i < n; i++ {
				s2.P(c)
				s1.V(c)
			}
		}, nil, mt.CreateOpts{Flags: flags})
		if err != nil {
			panic(err)
		}
		t1, err := r.Create(func(c *mt.Thread, _ any) {
			start := time.Now()
			for i := 0; i < n; i++ {
				s2.V(c)
				s1.P(c)
			}
			elapsed = time.Since(start)
		}, nil, mt.CreateOpts{Flags: flags})
		if err != nil {
			panic(err)
		}
		t.Wait(t1.ID())
		t.Wait(t2.ID())
	}, nil, mt.ProcConfig{})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// CrossProcessSync measures Figure 6's last row: threads in two
// different processes synchronizing through semaphores placed in a
// file mapped MAP_SHARED by both.
func CrossProcessSync(n int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 1})
	var elapsed time.Duration
	setup := func(p *mt.Proc, t *mt.Thread) (s1, s2 *mt.Sema) {
		fd, err := p.Open(t, "/tmp/syncfile", mt.OCreate|mt.ORdWr)
		if err != nil {
			panic(err)
		}
		va, err := p.Mmap(t, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0)
		if err != nil {
			panic(err)
		}
		s1, err = p.SharedSemaAt(t, va, 0)
		if err != nil {
			panic(err)
		}
		s2, err = p.SharedSemaAt(t, va+64, 0)
		if err != nil {
			panic(err)
		}
		return s1, s2
	}
	spawn := func(name string, body func(p *mt.Proc, t *mt.Thread)) *mt.Proc {
		ch := make(chan *mt.Proc, 1)
		p, err := sys.Spawn(name, func(t *mt.Thread, _ any) {
			body(<-ch, t)
		}, nil, mt.ProcConfig{})
		if err != nil {
			panic(err)
		}
		ch <- p
		return p
	}
	done := make(chan struct{})
	p2 := spawn("peer", func(p *mt.Proc, t *mt.Thread) {
		s1, s2 := setup(p, t)
		for i := 0; i < n; i++ {
			s2.P(t)
			s1.V(t)
		}
	})
	p1 := spawn("timer", func(p *mt.Proc, t *mt.Thread) {
		defer close(done)
		s1, s2 := setup(p, t)
		start := time.Now()
		for i := 0; i < n; i++ {
			s2.V(t)
			s1.P(t)
		}
		elapsed = time.Since(start)
	})
	<-done
	p1.WaitExit()
	p2.WaitExit()
	return elapsed
}

// DispatchLatency measures the user-level dispatch hot path — one
// push plus one pop of the run queue, through a full Yield — with
// `queued` unrelated runnable threads resident in the queue. The
// measuring thread runs at a priority above the crowd, so every Yield
// re-queues and immediately re-dispatches it while the crowd stays
// queued. A dispatcher whose pop scans the queue shows per-op cost
// growing with `queued`; the per-priority bitmap queue is O(1).
func DispatchLatency(queued, n int) time.Duration {
	return dispatchLatency(queued, n, 0)
}

// DispatchLatencyTraced is DispatchLatency with the per-CPU event
// rings enabled, so the cost of hot-path event recording shows up in
// the measurement. Comparing it against DispatchLatency bounds the
// tracing overhead (see mtbench -traceoverhead).
func DispatchLatencyTraced(queued, n int) time.Duration {
	return dispatchLatency(queued, n, 4096)
}

func dispatchLatency(queued, n, ring int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 1, EventRing: ring})
	var elapsed time.Duration
	done := make(chan struct{})
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		if _, err := r.SetPriority(t, 10); err != nil {
			panic(err)
		}
		for i := 0; i < queued; i++ {
			if _, err := r.Create(noop, nil, mt.CreateOpts{}); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			t.Yield()
		}
		elapsed = time.Since(start)
		// Returning lets the crowd drain and the process exit.
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// BroadcastWake measures multi-thread wakeup throughput: `waiters`
// threads block on one condition variable; each round broadcasts,
// every waiter re-checks the generation and parks again, and the
// round ends when all of them are queued once more. The reported
// duration covers rounds*waiters wakeups.
func BroadcastWake(waiters, rounds int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	var elapsed time.Duration
	done := make(chan struct{})
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		var mu mt.Mutex
		var cv mt.Cond
		gen, stop := 0, false
		var ids []mt.ThreadID
		for i := 0; i < waiters; i++ {
			c, err := r.Create(func(c *mt.Thread, _ any) {
				mu.Enter(c)
				for !stop {
					g := gen
					for gen == g && !stop {
						cv.Wait(c, &mu)
					}
				}
				mu.Exit(c)
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			ids = append(ids, c.ID())
		}
		settle := func() {
			for cv.Waiters() < waiters {
				t.Yield()
			}
		}
		settle()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			mu.Enter(t)
			gen++
			cv.Broadcast(t)
			mu.Exit(t)
			settle()
		}
		elapsed = time.Since(start)
		mu.Enter(t)
		stop = true
		cv.Broadcast(t)
		mu.Exit(t)
		for _, id := range ids {
			t.Wait(id)
		}
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// PriorityInversion measures the latency of a high-priority mutex
// acquisition from a low-priority owner while a medium-priority
// spinner competes for the only LWP — the classic priority-inversion
// triangle. Per round the measurer (priority 20) lets the holder
// (priority 1) take the lock, releases the spinner (priority 5, a
// bounded yield loop), and times its own blocking Enter. With
// inheritance the blocked Enter wills priority 20 to the holder, which
// then outranks the spinner and releases promptly: latency is bounded
// by the critical section. With inherit=false (the
// NoPriorityInheritance ablation) the holder stays at priority 1 and
// cannot run until the spinner exhausts its budget, so the measured
// latency grows with the spinner's budget — the inversion the
// turnstiles exist to prevent. The reported duration covers n
// acquisitions.
func PriorityInversion(n int, inherit bool) time.Duration {
	// One CPU, like the paper's measurement machine: the inversion
	// needs the spinner to be able to starve the holder.
	const spinBudget = 512
	sys := mt.NewSystem(mt.Options{NCPU: 1})
	var elapsed time.Duration
	done := make(chan struct{})
	var stop atomic.Bool
	var mu mt.Mutex
	var lGo, sGo, ready mt.Sema
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		if _, err := r.SetPriority(t, 20); err != nil {
			panic(err)
		}
		holder, err := r.Create(func(c *mt.Thread, _ any) {
			for {
				lGo.P(c)
				if stop.Load() {
					return
				}
				mu.Enter(c)
				ready.V(c)
				// Hand the LWP back to the measurer; without
				// inheritance we run again — and release — only
				// after the spinner drains its budget.
				c.Yield()
				mu.Exit(c)
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait, Priority: 1})
		if err != nil {
			panic(err)
		}
		spinner, err := r.Create(func(c *mt.Thread, _ any) {
			for {
				sGo.P(c)
				if stop.Load() {
					return
				}
				for i := 0; i < spinBudget; i++ {
					c.Yield()
				}
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait, Priority: 5})
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			lGo.V(t)
			ready.P(t) // holder owns the lock once this returns
			sGo.V(t)   // spinner is runnable, outranking the holder
			start := time.Now()
			mu.Enter(t)
			elapsed += time.Since(start)
			mu.Exit(t)
		}
		stop.Store(true)
		lGo.V(t)
		sGo.V(t)
		t.Wait(holder.ID())
		t.Wait(spinner.ID())
	}, nil, mt.ProcConfig{
		DefaultStackSize:      4096,
		NoPriorityInheritance: !inherit,
	})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// Row is one line of a paper-style results table.
type Row struct {
	Name     string
	PaperUS  float64 // the paper's measurement, microseconds
	Measured time.Duration
	Ops      int // operations the Measured total covers
	// Allocs is the total host heap allocations the scenario
	// performed (harness setup included), or -1 when not measured.
	// mtbench -allocs divides by Ops for a coarse per-op column; the
	// precise steady-state zero-alloc claims are pinned by
	// testing.AllocsPerRun unit tests in internal/core.
	Allocs int64
}

// PerOp returns the measured time per operation.
func (r Row) PerOp() time.Duration {
	if r.Ops == 0 {
		return 0
	}
	return r.Measured / time.Duration(r.Ops)
}

// Figure5 runs the thread-creation experiment and returns the table's
// rows with the paper's reference numbers attached.
func Figure5(n int) []Row {
	if n <= 0 {
		n = 20000
	}
	nb := n / 20
	if nb == 0 {
		nb = 1
	}
	ut, ua := countAllocs(func() time.Duration { return UnboundCreate(n) })
	bt, ba := countAllocs(func() time.Duration { return BoundCreate(nb) })
	return []Row{
		{Name: "Unbound thread create", PaperUS: 56, Measured: ut, Ops: n, Allocs: ua},
		{Name: "Bound thread create", PaperUS: 2327, Measured: bt, Ops: nb, Allocs: ba},
	}
}

// unmeasured marks every row's alloc count as not collected.
func unmeasured(rows []Row) []Row {
	for i := range rows {
		rows[i].Allocs = -1
	}
	return rows
}

// Figure6 runs the synchronization experiment. Each ping-pong round
// is two synchronizations, so Ops is 2n for those rows, matching the
// paper's division by two.
func Figure6(n int) []Row {
	if n <= 0 {
		n = 20000
	}
	return unmeasured([]Row{
		{Name: "Setjmp/longjmp", PaperUS: 59, Measured: SetjmpLongjmp(n), Ops: n},
		{Name: "Unbound thread sync", PaperUS: 158, Measured: SyncPingPong(n, false), Ops: 2 * n},
		{Name: "Bound thread sync", PaperUS: 348, Measured: SyncPingPong(n, true), Ops: 2 * n},
		{Name: "Cross process thread sync", PaperUS: 301, Measured: CrossProcessSync(n), Ops: 2 * n},
	})
}

// Figure7 runs the priority-inversion experiment — not a figure of
// the paper, which predates the turnstile work, but measured in its
// style: the same triangle with inheritance on and off. The "off" row
// needs far fewer rounds because each one deliberately pays the
// spinner's full budget.
func Figure7(n int) []Row {
	if n <= 0 {
		n = 20000
	}
	nOn := n / 4
	if nOn == 0 {
		nOn = 1
	}
	nOff := n / 64
	if nOff == 0 {
		nOff = 1
	}
	return unmeasured([]Row{
		{Name: "Contended enter, inheritance", Measured: PriorityInversion(nOn, true), Ops: nOn},
		{Name: "Contended enter, inversion", Measured: PriorityInversion(nOff, false), Ops: nOff},
	})
}

// ratios returns every row's ratio to the row before it, measured and
// paper's — the paper's own second column. An entry is 0 where there is
// no ratio to take: the first row, a zero previous row, or (paper side)
// a row the paper does not have.
func ratios(rows []Row) (measured, paper []float64) {
	measured, paper = make([]float64, len(rows)), make([]float64, len(rows))
	for i := 1; i < len(rows); i++ {
		if prev := rows[i-1].PerOp(); prev > 0 {
			measured[i] = float64(rows[i].PerOp()) / float64(prev)
		}
		if prev := rows[i-1].PaperUS; prev > 0 {
			paper[i] = rows[i].PaperUS / prev
		}
	}
	return measured, paper
}

// shapeFactor bounds how far a measured ratio may sit from the paper's,
// either way. The smallest integer that left 1.5x headroom on every
// figure 5 and 6 row over 20 runs (EXPERIMENTS.md, PR 21: the furthest
// was bound/unbound sync, 6.93 against the paper's 2.20).
const shapeFactor = 5

// CheckShape holds a table to the paper's shape within its own run:
// every row-to-previous-row ratio the paper also has must lie within
// shapeFactor of the paper's, and an operation the paper found at least
// twice as dear as the one above it must measure at least twice as dear
// here. It returns one line per violating row.
func CheckShape(rows []Row) []string {
	var bad []string
	measured, paper := ratios(rows)
	for i, r := range rows {
		m, p := measured[i], paper[i]
		if p == 0 {
			continue
		}
		if m > p*shapeFactor || m < p/shapeFactor || (p >= 2 && m < 2) {
			bad = append(bad, fmt.Sprintf("%s: %.2fx the row above, paper %.2fx (want within %dx of it, and >= 2 where it is)",
				r.Name, m, p, shapeFactor))
		}
	}
	return bad
}

// FormatTable renders rows in the paper's format: a time column and a
// ratio column giving each row's ratio to the previous row, plus the
// paper's numbers alongside.
func FormatTable(title string, rows []Row) string {
	out := fmt.Sprintf("%s\n%-28s %12s %8s %12s %8s\n", title,
		"", "measured", "ratio", "paper (us)", "ratio")
	measured, paper := ratios(rows)
	cell := func(ratio float64) string {
		if ratio == 0 {
			return ""
		}
		return fmt.Sprintf("%.2f", ratio)
	}
	for i, r := range rows {
		paperCol := "-"
		if r.PaperUS > 0 {
			paperCol = fmt.Sprintf("%.0f", r.PaperUS)
		}
		out += fmt.Sprintf("%-28s %10.2fus %8s %12s %8s\n", r.Name,
			float64(r.PerOp().Nanoseconds())/1e3, cell(measured[i]), paperCol, cell(paper[i]))
	}
	return out
}
