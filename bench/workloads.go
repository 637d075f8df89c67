package main

import (
	"fmt"
	"slices"
)

// workload is one set of inputs the benchmark runs. Every workload is
// a closed loop with a fixed operation count, so simulated statistics
// (dispatches, pushes, pops, pool size) compare exactly across two
// commits; only host time is subject to the sandbox's noise.
type workload struct {
	Name string
	// Why is the reason the workload exists, repeated in
	// BENCHMARK.json.
	Why string
	// Ops is the operation count of one repeat, sized to 110-160 ms on
	// the commit that introduced the benchmark: the host's slow phases
	// last 50-600 ms (README, Steadiness), and only a repeat shorter
	// than the gaps between them can fall wholly outside one.
	Ops int
	// TwoThreads says that the per-layer sheet also carries a reading
	// of the workload on two host threads (README, "One host thread,
	// and hotlock's second reading").
	TwoThreads bool
	// SampleEvery keeps raw span records for every n-th operation of
	// the traced repeat; span aggregates always cover every operation.
	SampleEvery uint32
	// Coverage says whether the workload's operations have a latency
	// window its spans are expected to account for.
	Coverage bool
	run      func(runConfig) *outcome
}

var workloads = []workload{
	{
		Name:        "pingpong_unbound",
		Why:         "paper Fig 6 row 2: two unbound threads on one LWP trade two semaphores; pure user-level switch, the simulated kernel does nothing",
		Ops:         128000,
		SampleEvery: 32,
		run:         func(c runConfig) *outcome { return runPingpong(c, false) },
	},
	{
		Name:        "pingpong_bound",
		Why:         "paper Fig 6 row 3: same code with bound threads; every block goes through the simulated kernel and the library dispatcher is bypassed",
		Ops:         50000,
		SampleEvery: 16,
		run:         func(c runConfig) *outcome { return runPingpong(c, true) },
	},
	{
		Name:        "winsys",
		Why:         "paper window system: 2000 long-lived unbound threads, few runnable; uncontended Mutex+Cond, three switches per event, no kernel blocking",
		Ops:         32000,
		SampleEvery: 2,
		Coverage:    true,
		run:         runWinsys,
	},
	{
		Name:        "netsrv",
		Why:         "paper network server: thread create/exit per request, LWPs blocked in the kernel on pipes and poll, SIGWAITING pool growth, fork1",
		Ops:         2000,
		SampleEvery: 1,
		Coverage:    true,
		run:         runNetsrv,
	},
	{
		Name:        "dbshared",
		Why:         "paper Fig 1: record locks in a MAP_SHARED file contended by threads of two processes; usync+vm path, local locks bypassed",
		Ops:         80000,
		SampleEvery: 8,
		run:         runDBShared,
	},
	{
		Name:        "hotlock",
		Why:         "contended process-local mutexes: 8 threads on 2 LWPs, 4 locks, every Enter timed; the spin/park/hand-off paths winsys never reaches",
		Ops:         200000,
		TwoThreads:  true,
		SampleEvery: 32,
		run:         runHotlock,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spanBudget is how many raw span records one traced repeat retains.
const spanBudget = 1 << 20

// repeatResult is what one repeat of one workload reports, as the
// worker child prints it and the parent reads it.
type repeatResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Ops      int64    `json:"ops"`
	Failed   int64    `json:"failed"`
	Errors   []string `json:"errors,omitempty"`
	// LatSamples is how many latency samples the percentiles rest on.
	LatSamples int `json:"lat_samples"`
	// Metrics holds every end-to-end metric; Layer the count-based
	// per-layer metrics and, when traced, the span-based ones.
	Metrics map[string]float64 `json:"metrics"`
	Layer   map[string]float64 `json:"layer"`
	// Spans is the traced repeat's per-span-name breakdown.
	Spans []spanRow `json:"spans,omitempty"`
}

// spanRow is one span name's totals in a traced repeat.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	SelfNS float64 `json:"self_mean_ns"`
}

// runRepeat runs one repeat in this process and derives its metrics.
// ops is w.Ops except in the smoke tests.
func runRepeat(w workload, ops int, seed int64, traced, fault bool, spansPath string) (repeatResult, error) {
	cfg := runConfig{ops: ops, seed: seed, fault: fault}
	if traced {
		cfg.tr = newTracer(spanBudget, w.SampleEvery)
	}
	o := w.run(cfg)

	slices.Sort(o.lat)
	done := float64(o.ops)
	res := repeatResult{
		Workload:   w.Name,
		Seed:       seed,
		Traced:     traced,
		Ops:        o.ops,
		Failed:     o.failed,
		Errors:     o.errs,
		LatSamples: len(o.lat),
		Layer:      o.layer,
		Metrics: map[string]float64{
			"ops_per_s":          done / o.wall.Seconds(),
			"lat_p50_us":         percentileU32(o.lat, 50) / 1e3,
			"lat_p95_us":         percentileU32(o.lat, 95) / 1e3,
			"lat_p99_us":         percentileU32(o.lat, 99) / 1e3,
			"cpu_us_per_op":      float64(o.cpu.Microseconds()) / done,
			"host_allocs_per_op": float64(o.mallocs) / done,
			"peak_rss_mb":        o.peakRSSMiB,
			"fail_ratio":         float64(o.failed) / done,
			"setup_s":            o.setup.Seconds(),
		},
	}
	if !traced {
		return res, nil
	}

	sum := cfg.tr.summary()
	for name, sm := range spanMetrics {
		if a := sum.agg[name]; a.n > 0 {
			res.Layer[sm.metric] = float64(a.self) / float64(a.n) / sm.div
		}
	}
	if a := sum.agg[spMutexEnter]; a.n > 0 {
		res.Layer["tsync.mutex_enter_ns_p50"] = percentileU32(sum.enterNS, 50)
		res.Layer["tsync.mutex_enter_ns_p99"] = percentileU32(sum.enterNS, 99)
		res.Layer["tsync.slow_enter_frac"] = float64(sum.slow) / float64(a.n)
	}
	for i, a := range sum.agg {
		if a.n > 0 {
			res.Spans = append(res.Spans, spanRow{
				Name:   spanLabels[i],
				Count:  a.n,
				MeanNS: float64(a.total) / float64(a.n),
				SelfNS: float64(a.self) / float64(a.n),
			})
		}
	}
	if w.Coverage && o.opWindow != nil {
		if covered, total, n := cfg.tr.coverage(o.opWindow); n > 0 && total > 0 {
			res.Layer["bench.span_residual_frac"] = 1 - covered/total
		}
	}
	if spansPath != "" {
		if err := cfg.tr.writeChrome(spansPath); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}
