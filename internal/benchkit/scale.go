package benchkit

import (
	"runtime"
	"time"

	"sunosmt/mt"
)

// This file holds the million-thread scale tier (Figure 10, not in
// the paper): the paper's "tens of thousands of threads" ambition
// pushed two orders of magnitude further. The tier exists to measure
// the per-thread memory story — reserve-don't-commit stacks, pooled
// Thread shells — at a scale where any per-thread waste or any
// O(n) step in the create/exit path dominates.

// ScaleStats carries the non-time results of the scale tier: the byte
// counts mtbench prints under the table and holds to its ring ceiling.
type ScaleStats struct {
	Threads int
	// ReservedPerThread is the address-space bytes one idle,
	// never-run thread costs (stack reservation + red-zone guard).
	ReservedPerThread int64
	// CommittedPerThread is the committed (simulated-resident) bytes
	// one never-run thread costs. The reserve/commit split makes
	// this 0: no page commits until the thread first runs.
	CommittedPerThread int64
	// RingPeakCommitted is the address space's high-water committed
	// bytes while the thread ring ran n threads through dispatch —
	// the number mtbench's ring ceiling checks.
	RingPeakCommitted int64
}

// countAllocs runs f and reports the host heap allocations performed
// during it. The count spans the whole scenario — harness setup
// included — so it is a coarse diagnostic; the precise steady-state
// claims are pinned by testing.AllocsPerRun unit tests in core.
func countAllocs(f func() time.Duration) (time.Duration, int64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := f()
	runtime.ReadMemStats(&m1)
	return d, int64(m1.Mallocs - m0.Mallocs)
}

// ScaleCreate mass-creates n stopped threads in one process and
// reports the creation time plus the address-space accounting. The
// threads are created THREAD_STOPPED and never dispatched: each one
// costs its stack reservation but not a single committed page — the
// overcommit that makes a million-thread process affordable. The
// process is torn down with exit(2) (stopped threads never exit on
// their own).
func ScaleCreate(n int) (elapsed time.Duration, reserved, committed int64) {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	done := make(chan struct{})
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn("scale", func(t *mt.Thread, _ any) {
		p := <-ch
		r := t.Runtime()
		res0, com0 := p.AS.Reserved(), p.AS.Committed()
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := r.Create(noop, nil, mt.CreateOpts{Flags: mt.ThreadStop}); err != nil {
				panic(err)
			}
		}
		elapsed = time.Since(start)
		reserved = (p.AS.Reserved() - res0) / int64(n)
		committed = (p.AS.Committed() - com0) / int64(n)
		close(done)
		t.ExitProcess(0)
	}, nil, mt.ProcConfig{})
	if err != nil {
		panic(err)
	}
	ch <- p
	<-done
	p.WaitExit()
	return elapsed, reserved, committed
}

// ThreadRing runs n threads through a full lifecycle in a chain: each
// thread is created stopped, and when continued it continues the next
// thread and exits. n sequential dispatch+exit cycles exercise the
// shell freelist, the animator pool, and the stack cache at scale;
// the returned peak-committed number is the high-water simulated
// resident footprint — bounded by the few threads alive at once, not
// by n.
//
// The ring is created in reverse index order so that ring[0] — the
// first to run and exit — owns the most recent (lowest-base) stack
// carve: exits then unmap from the tail of the segment list, the O(1)
// splice path.
func ThreadRing(n int) (elapsed time.Duration, peakCommitted int64) {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	done := make(chan struct{})
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn("ring", func(t *mt.Thread, _ any) {
		defer close(done)
		p := <-ch
		r := t.Runtime()
		var fin mt.Sema
		hop := func(c *mt.Thread, arg any) {
			if next, ok := arg.(*mt.Thread); ok {
				if err := c.Runtime().Continue(next); err != nil {
					panic(err)
				}
				return
			}
			fin.V(c)
		}
		var next any // ring[i] hands control to ring[i+1]; the last to fin
		var first *mt.Thread
		for i := n - 1; i >= 0; i-- {
			c, err := r.Create(hop, next, mt.CreateOpts{Flags: mt.ThreadStop})
			if err != nil {
				panic(err)
			}
			next, first = c, c
		}
		start := time.Now()
		if err := r.Continue(first); err != nil {
			panic(err)
		}
		fin.P(t)
		elapsed = time.Since(start)
		peakCommitted = p.AS.PeakCommitted()
	}, nil, mt.ProcConfig{})
	if err != nil {
		panic(err)
	}
	ch <- p
	<-done
	p.WaitExit()
	return elapsed, peakCommitted
}

// PairChain churns `pairs` short-lived thread pairs, each ping-ponging
// `rounds` semaphore rounds before being waited — the steady-state
// create/sync/exit/reap mix a thread-per-request server generates,
// run long enough that every pair after the first recycles its
// predecessors' shells and stacks. The duration covers
// pairs*rounds*2 synchronizations.
func PairChain(pairs, rounds int) time.Duration {
	sys := mt.NewSystem(mt.Options{NCPU: 2})
	var elapsed time.Duration
	done := make(chan struct{})
	p, err := sys.Spawn("chain", func(t *mt.Thread, _ any) {
		defer close(done)
		r := t.Runtime()
		start := time.Now()
		for i := 0; i < pairs; i++ {
			var s1, s2 mt.Sema
			a, err := r.Create(func(c *mt.Thread, _ any) {
				for j := 0; j < rounds; j++ {
					s2.P(c)
					s1.V(c)
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			b, err := r.Create(func(c *mt.Thread, _ any) {
				for j := 0; j < rounds; j++ {
					s2.V(c)
					s1.P(c)
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			t.Wait(a.ID())
			t.Wait(b.ID())
		}
		elapsed = time.Since(start)
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	<-done
	p.WaitExit()
	return elapsed
}

// Figure10 runs the scale tier at n threads (default one million) and
// returns the timed rows plus the byte counts.
func Figure10(n int) ([]Row, ScaleStats) {
	if n <= 0 {
		n = 1_000_000
	}
	var stats ScaleStats
	stats.Threads = n

	createT, allocs := countAllocs(func() time.Duration {
		d, res, com := ScaleCreate(n)
		stats.ReservedPerThread, stats.CommittedPerThread = res, com
		return d
	})

	ringT, peak := ThreadRing(n)
	stats.RingPeakCommitted = peak

	pairs := max(n/16, 1)
	const pairRounds = 4
	chainT := PairChain(pairs, pairRounds)

	waiters := max(min(n/16, 65536), 1)
	const bcRounds = 2
	bcT := BroadcastWake(waiters, bcRounds)

	rows := []Row{
		{Name: "Mass create (stopped)", Measured: createT, Ops: n, Allocs: allocs},
		{Name: "Thread ring hop", Measured: ringT, Ops: n, Allocs: -1},
		{Name: "Pairwise sync chain", Measured: chainT, Ops: pairs * pairRounds * 2, Allocs: -1},
		{Name: "Mass broadcast wake", Measured: bcT, Ops: waiters * bcRounds, Allocs: -1},
	}
	return rows, stats
}
