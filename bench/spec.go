package main

// This file is the single list of names the benchmark emits. The
// BENCHMARK.json at the repository root repeats the workload names,
// the driver-gated end-to-end metrics and every per-layer metric;
// bench_test.go fails when the two differ, so later issues can cite
// names verbatim.

// metricSpec names one metric with its unit and direction.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	// Per-layer metrics have no bound.
	Bound float64
	// Unlisted says why an end-to-end metric is printed, recorded and
	// compared but not listed in BENCHMARK.json; empty for the metrics
	// that are listed.
	Unlisted string
	// Ungated metrics get a verdict from -compare and -selfcheck like
	// the others, but it never counts towards their exit code.
	Ungated bool
}

// endToEnd lists what a programmer who writes against mt pays:
// operations per second, how long one operation waits, how much host
// CPU and memory the program costs, and whether it finishes at all.
//
// The five listed timing metrics carry the widest bound the benchmark
// contract allows. Ten-seed sets of 20 s runs spread 3-8 % on them while
// the host this was built on was quiet and up to 16 % while it was not
// (38 % on dbshared, four of whose ten runs the host ran 31 % slower),
// the contract asks for a bound of three times the spread seen, and its
// time budget leaves no room for longer runs (README, Steadiness). The
// two count-like metrics repeat to 1 % and keep the bounds the issue
// gave them.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	// The 99th percentile counts disturbances, the host's among them:
	// when the host turned noisy half-way through a ten-seed set the
	// unbound ping-pong's read 1.4-1.5 us before and 1.8-1.9 us after
	// (+30 %, where ops_per_s moved 12 %), a spread of 24.5 % inside
	// one set. A gate that near its bound fails at random, so the listed
	// tail is the 95th percentile and this one is reported beside it.
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Ungated: true,
		Unlisted: "follows the host's noise three times as closely as ops_per_s; lat_p95_us is the listed tail"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "allocs", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	// The driver contract wants metrics that are never 0 and takes
	// failures from the attempted/failed counts of the result line.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Unlisted: "reported as failed/attempted"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// twoThreadMetrics maps the per-layer metrics of a workload's reading
// on two host threads to the end-to-end metric of those repeats each is
// taken from.
var twoThreadMetrics = map[string]string{
	"tsync.two_thread_ops_per_s":     "ops_per_s",
	"tsync.two_thread_enter_us_p50":  "lat_p50_us",
	"tsync.two_thread_enter_us_p95":  "lat_p95_us",
	"tsync.two_thread_cpu_us_per_op": "cpu_us_per_op",
}

// higherIsBetter reports the direction of the end-to-end metric name.
func higherIsBetter(name string) bool {
	for _, s := range endToEnd {
		if s.Name == name {
			return s.Better == "higher"
		}
	}
	return false
}

// perLayer lists the layer cost sheet: probes of one layer alone,
// counts read from the public *Stats() surfaces around the timed
// region, and mean self times of the spans bench records around its
// own calls into mt.
var perLayer = []metricSpec{
	// host: the Go runtime under everything.
	{Name: "host.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	// ktime: the clock read at every microstate transition.
	{Name: "ktime.now_ns", Unit: "ns", Better: "lower"},
	{Name: "ktime.afterfunc_ns", Unit: "ns", Better: "lower"},
	// sim: the simulated kernel (k.mu, CPU grant, Park/Sleep/Wakeup).
	{Name: "sim.park_unpark_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.park_unpark_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.dispatches_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.migrations_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.lwp_oncpu_frac", Unit: "ratio", Better: "higher"},
	{Name: "sim.lwp_sleep_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.lwp_runq_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.sys_time_frac", Unit: "ratio", Better: "lower"},
	// core: the threads library.
	{Name: "core.dispatch_pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.yield_ns", Unit: "ns", Better: "lower"},
	{Name: "core.create_ns", Unit: "ns", Better: "lower"},
	{Name: "core.create_bound_us", Unit: "us", Better: "lower"},
	{Name: "core.create_wait_exit_us", Unit: "us", Better: "lower"},
	{Name: "core.pushes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pops_per_op", Unit: "count", Better: "lower"},
	{Name: "core.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pool_lwps_end", Unit: "count", Better: "lower"},
	{Name: "core.growth_failures", Unit: "count", Better: "lower"},
	{Name: "core.threads_peak", Unit: "count", Better: "lower"},
	{Name: "core.ms_user_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.ms_runq_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.ms_sleep_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.ms_lock_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.create_us", Unit: "us", Better: "lower"},
	{Name: "core.wait_us", Unit: "us", Better: "lower"},
	{Name: "core.switch_residual_ns", Unit: "ns", Better: "lower"},
	// tsync: process-local synchronization.
	{Name: "tsync.sema_pv_ns", Unit: "ns", Better: "lower"},
	{Name: "tsync.mutex_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "tsync.cond_signal_nowaiter_ns", Unit: "ns", Better: "lower"},
	{Name: "tsync.mutex_enter_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "tsync.mutex_enter_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "tsync.slow_enter_frac", Unit: "ratio", Better: "lower"},
	{Name: "tsync.cond_wait_us", Unit: "us", Better: "lower"},
	{Name: "tsync.cond_signal_ns", Unit: "ns", Better: "lower"},
	{Name: "tsync.sema_p_us", Unit: "us", Better: "lower"},
	{Name: "tsync.sema_v_ns", Unit: "ns", Better: "lower"},
	// hotlock once more on two host threads, where a waiter meets an
	// owner that is running and the adaptive mutex spins.
	{Name: "tsync.two_thread_ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "tsync.two_thread_enter_us_p50", Unit: "us", Better: "lower"},
	{Name: "tsync.two_thread_enter_us_p95", Unit: "us", Better: "lower"},
	{Name: "tsync.two_thread_cpu_us_per_op", Unit: "us", Better: "lower"},
	// usync + vm: process-shared synchronization in mapped files.
	{Name: "usync.mutex_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "usync.sharedvar_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "usync.shared_enter_us", Unit: "us", Better: "lower"},
	{Name: "usync.shared_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.memread_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.memwrite_ns", Unit: "ns", Better: "lower"},
	{Name: "vm.mapstack_us", Unit: "us", Better: "lower"},
	// vfs: pipes and poll.
	{Name: "vfs.pipe_write_ns", Unit: "ns", Better: "lower"},
	{Name: "vfs.pipe_read_us", Unit: "us", Better: "lower"},
	{Name: "vfs.poll_us", Unit: "us", Better: "lower"},
	{Name: "vfs.pipe_rtt_us", Unit: "us", Better: "lower"},
	{Name: "vfs.guard_timeouts_per_kop", Unit: "count", Better: "lower"},
	// mt: the facade (process creation, setjmp).
	{Name: "mt.fork1_us", Unit: "us", Better: "lower"},
	{Name: "mt.spawn_us", Unit: "us", Better: "lower"},
	{Name: "mt.setjmp_ns", Unit: "ns", Better: "lower"},
	// trace: the product's event rings (off in every workload).
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.ring_overhead_ratio", Unit: "ratio", Better: "lower"},
	// bench: what the benchmark's own tracing costs and leaves unexplained.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_residual_frac", Unit: "ratio", Better: "lower"},
}
