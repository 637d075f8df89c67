package main

import (
	"sync/atomic"
	"time"

	"sunosmt/internal/benchkit"
	"sunosmt/internal/ktime"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
	"sunosmt/mt"
)

// A probe times one layer alone over the thinnest stub of the layer
// below it: ROADMAP item 1's L0-L5, measured from outside through
// public functions. fn runs n iterations and returns the elapsed host
// time of the timed part and how many operations that covers.
type probe struct {
	metric string
	div    float64 // nanoseconds per unit of the metric
	fn     func(n int) (time.Duration, int)
}

// Every probe is measured probeReps times for about probeRepeat each
// (a second per probe in all) and reports the median.
const (
	probeReps   = 5
	probeRepeat = 200 * time.Millisecond
)

var sink atomic.Int64

var probes = []probe{
	{"host.handoff_ns", 1, probeHandoff},
	{"ktime.now_ns", 1, probeClockNow},
	{"ktime.afterfunc_ns", 1, probeAfterFunc},
	{"sim.park_unpark_ns", 1, func(n int) (time.Duration, int) { return probeParkUnpark(n, -1) }},
	{"sim.park_unpark_cost_ns", 1, func(n int) (time.Duration, int) { return probeParkUnpark(n, 0) }},
	{"core.dispatch_pushpop_ns", 1, func(n int) (time.Duration, int) { return mt.DispatchBench(1, 1, n), n }},
	{"core.yield_ns", 1, func(n int) (time.Duration, int) { return benchkit.DispatchLatency(64, n), n }},
	{"core.create_ns", 1, func(n int) (time.Duration, int) { return benchkit.UnboundCreate(n), n }},
	{"core.create_bound_us", 1e3, func(n int) (time.Duration, int) { return benchkit.BoundCreate(n), n }},
	{"core.create_wait_exit_us", 1e3, probeLifecycle},
	{"tsync.sema_pv_ns", 1, probeSemaPV},
	{"tsync.mutex_pair_ns", 1, probeMutexPair},
	{"tsync.cond_signal_nowaiter_ns", 1, probeCondSignal},
	{"usync.mutex_pair_ns", 1, probeSharedMutexPair},
	{"vm.mapstack_us", 1e3, probeMapStack},
	{"vfs.pipe_rtt_us", 1e3, probePipeRTT},
	{"mt.setjmp_ns", 1, func(n int) (time.Duration, int) { return benchkit.SetjmpLongjmp(n), n }},
	{"trace.record_ns", 1, probeRingRecord},
}

// measure runs fn for about target per repeat, reps times, and returns
// the median nanoseconds per operation.
func measure(fn func(n int) (time.Duration, int), target time.Duration, reps int) float64 {
	n := 64
	d, _ := fn(n)
	for d < target/8 && n < 1<<28 {
		n *= 4
		d, _ = fn(n)
	}
	if d > 0 {
		n = max(int(float64(n)*float64(target)/float64(d)), 1)
	}
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		d, ops := fn(n)
		vals = append(vals, float64(d)/float64(max(ops, 1)))
	}
	return median(vals)
}

// runProbes measures every isolated probe plus the two figures derived
// from an unbound ping-pong: the product's event-ring overhead and the
// part of a user-level switch no probed layer accounts for.
func runProbes(target time.Duration, reps, pingpongOps int, seed int64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		out[p.metric] = measure(p.fn, target, reps) / p.div
	}

	// Unbound ping-pong with the product's event rings on and off,
	// interleaved so host drift hits both alike.
	var plain, ringed []float64
	for i := 0; i < reps; i++ {
		for _, ring := range []int{0, 4096} {
			o := runPingpong(runConfig{ops: pingpongOps, seed: seed, ring: ring}, false)
			ns := float64(o.wall) / float64(o.ops)
			if ring == 0 {
				plain = append(plain, ns)
			} else {
				ringed = append(ringed, ns)
			}
		}
	}
	perSync := median(plain)
	out["trace.ring_overhead_ratio"] = median(ringed) / perSync
	// One unbound switch is two goroutine hand-offs, one run-queue
	// push+pop and one semaphore V+P; what is left is the library's
	// park/unpark path itself.
	out["core.switch_residual_ns"] = perSync -
		(2*out["host.handoff_ns"] + out["core.dispatch_pushpop_ns"] + out["tsync.sema_pv_ns"])
	return out
}

// probeHandoff: two goroutines trade a token over unbuffered channels;
// one operation is one hand-off, the floor under any thread switch.
func probeHandoff(n int) (time.Duration, int) {
	a, b := make(chan struct{}), make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			<-a
			b <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		a <- struct{}{}
		<-b
	}
	return time.Since(start), 2 * n
}

func probeClockNow(n int) (time.Duration, int) {
	clk := ktime.NewReal()
	var acc time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		acc += clk.Now()
	}
	d := time.Since(start)
	sink.Add(int64(acc))
	return d, n
}

func probeAfterFunc(n int) (time.Duration, int) {
	clk := ktime.NewReal()
	fn := func() {}
	start := time.Now()
	for i := 0; i < n; i++ {
		clk.AfterFunc(time.Hour, fn).Stop()
	}
	return time.Since(start), n
}

// probeParkUnpark: two LWPs on one CPU wake each other with
// Kernel.Park/Unpark and nothing above the kernel; one operation is
// one Park+Unpark pair, what a bound-thread synchronization costs in
// the simulated kernel. switchCost < 0 turns the simulated trap cost
// off, 0 leaves the default.
func probeParkUnpark(n int, switchCost time.Duration) (time.Duration, int) {
	k := sim.NewKernel(sim.Config{NCPU: 1, KernelSwitchCost: switchCost})
	p := k.NewProcess("probe", nil)
	animate := func(body func(l *sim.LWP)) (*sim.LWP, chan struct{}, chan struct{}) {
		l, err := k.NewLWP(p, sim.ClassTS, 30)
		if err != nil {
			panic(err)
		}
		start, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			defer func() {
				if r := recover(); r != nil && !sim.IsUnwind(r) {
					panic(r)
				}
				k.ExitLWP(l)
			}()
			<-start
			k.Start(l)
			body(l)
		}()
		return l, start, done
	}
	var a, b *sim.LWP
	var elapsed time.Duration
	a, startA, doneA := animate(func(l *sim.LWP) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			k.Unpark(b)
			k.Park(l)
		}
		elapsed = time.Since(t0)
	})
	b, startB, doneB := animate(func(l *sim.LWP) {
		for i := 0; i < n; i++ {
			k.Park(l)
			k.Unpark(a)
		}
	})
	close(startB)
	close(startA)
	<-doneA
	<-doneB
	return elapsed, 2 * n
}

// inProc boots a machine, runs body on the main thread of one process
// and waits for the process to exit.
func inProc(ncpu int, body func(p *mt.Proc, t *mt.Thread)) {
	sys := mt.NewSystem(mt.Options{NCPU: ncpu})
	spawn(sys, nil, "probe", mt.ProcConfig{}, body).WaitExit()
}

func probeLifecycle(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		r := t.Runtime()
		noop := func(*mt.Thread, any) {}
		start := time.Now()
		for i := 0; i < n; i++ {
			c, err := r.Create(noop, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			if _, err := t.Wait(c.ID()); err != nil {
				panic(err)
			}
		}
		d = time.Since(start)
	})
	return d, n
}

func probeSemaPV(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		var s mt.Sema
		start := time.Now()
		for i := 0; i < n; i++ {
			s.V(t)
			s.P(t)
		}
		d = time.Since(start)
	})
	return d, n
}

func probeMutexPair(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		var mu mt.Mutex
		start := time.Now()
		for i := 0; i < n; i++ {
			mu.Enter(t)
			mu.Exit(t)
		}
		d = time.Since(start)
	})
	return d, n
}

func probeCondSignal(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		var cv mt.Cond
		start := time.Now()
		for i := 0; i < n; i++ {
			cv.Signal(t)
		}
		d = time.Since(start)
	})
	return d, n
}

func probeSharedMutexPair(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		fd, err := p.Open(t, "/tmp/probe.db", mt.OCreate|mt.ORdWr)
		if err != nil {
			panic(err)
		}
		va, err := p.Mmap(t, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0)
		if err != nil {
			panic(err)
		}
		mu, err := p.SharedMutexAt(t, va)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			mu.Enter(t)
			mu.Exit(t)
		}
		d = time.Since(start)
	})
	return d, n
}

func probeMapStack(n int) (d time.Duration, ops int) {
	inProc(1, func(p *mt.Proc, t *mt.Thread) {
		const size = 64 << 10
		start := time.Now()
		for i := 0; i < n; i++ {
			base, err := p.MapStack(t, size)
			if err != nil {
				panic(err)
			}
			if err := p.UnmapStack(t, base, size); err != nil {
				panic(err)
			}
		}
		d = time.Since(start)
	})
	return d, n
}

// probePipeRTT: two bound threads bounce one byte through a pipe
// pair, reads guarded as in netsrv; one operation is one round trip.
func probePipeRTT(n int) (d time.Duration, ops int) {
	inProc(2, func(p *mt.Proc, t *mt.Thread) {
		var timeouts atomic.Int64
		ar, aw, err := p.Pipe(t)
		if err != nil {
			panic(err)
		}
		br, bw, err := p.Pipe(t)
		if err != nil {
			panic(err)
		}
		echo, err := t.Runtime().Create(func(c *mt.Thread, _ any) {
			buf, fds := make([]byte, 1), make([]mt.PollFD, 1)
			for i := 0; i < n; i++ {
				if _, err := guardedRead(p, c, nil, ar, buf, fds, &timeouts, noOp, nil); err != nil {
					panic(err)
				}
				if _, err := p.Write(c, bw, buf); err != nil {
					panic(err)
				}
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
		if err != nil {
			panic(err)
		}
		pinger, err := t.Runtime().Create(func(c *mt.Thread, _ any) {
			buf, fds := make([]byte, 1), make([]mt.PollFD, 1)
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := p.Write(c, aw, buf); err != nil {
					panic(err)
				}
				if _, err := guardedRead(p, c, nil, br, buf, fds, &timeouts, noOp, nil); err != nil {
					panic(err)
				}
			}
			d = time.Since(start)
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
		if err != nil {
			panic(err)
		}
		t.Wait(pinger.ID())
		t.Wait(echo.ID())
	})
	return d, n
}

func probeRingRecord(n int) (time.Duration, int) {
	rings := trace.NewRings(1, 4096, ktime.NewReal().Now)
	start := time.Now()
	for i := 0; i < n; i++ {
		rings.Record(0, trace.EvDispatch, 1, 1, 1, uint64(i))
	}
	return time.Since(start), n
}
