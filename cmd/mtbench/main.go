// Command mtbench regenerates the evaluation tables of "SunOS
// Multi-thread Architecture" (USENIX Winter '91): Figure 5 (thread
// creation time) and Figure 6 (thread synchronization time), printing
// measured numbers next to the paper's, with the paper's ratio
// columns.
//
// Usage:
//
//	mtbench [-n iterations] [-fig 5,6,7,9,..,12|0|-1] [-json file] [-baseline file] [-threshold x] [-traceoverhead x] [-allocs] [-memceiling bytes] [-seeds n] [-fastforward x] [-lockfull]
//
// -fig 7 is the priority-inversion table (not in the paper): the
// contended-acquisition triangle with turnstile priority inheritance
// on and off. The "off" row reproduces the inversion; the gate keeps
// the "on" row's bounded latency from regressing.
//
// There is no -fig 8: it compared a sharded library run queue with a
// shared one, and the library has one queue again (EXPERIMENTS.md,
// "Dispatch scaling (retired)"). -fig 9 reports the best-of-five-trials
// median cross-CPU wakeup latency, computed from the per-CPU event
// rings, plus the kernel dispatcher's pooled dispatch/steal counters.
// The run fails outright when no steal happened — the deterministic
// structural property — while the latency row holds a baseline
// threshold half the old steal-rate backstop, because best-of-N
// discards the trials the host degraded.
// -fig accepts a comma list ("5,6,7") so CI can gate figures in
// separate invocations.
//
// -fig 12 is the lock-policy shootout (not in the paper): every lock
// policy (adaptive, ticket, queue, parkinglot) crossed with LWP widths
// and critical-section hold times, reporting p50/p99/p999 lock-wait
// latency per cell from the runtime's MSLock microstate sampling.
// Only the default (adaptive) policy's contended cell feeds the JSON
// rows and the baseline gate; -lockfull widens the matrix for the
// nightly run.
//
// -fig 10 is the scale tier (not in the paper): mass-create of n
// stopped threads reporting reserved/committed bytes per thread, a
// thread ring driving n full lifecycles through the shell freelist
// and stack cache, a pairwise create/sync/exit chain, and a mass
// broadcast. Memory metrics ride in the per-op encoding (KB as
// microseconds, like fig 9's steal rate) so the baseline gates them.
// CI runs the tier at -n 100000 per PR; the nightly job runs the
// full million with -memceiling gating the ring's peak committed
// bytes.
//
// -fig 11 is the virtual-time tier (not in the paper): a seeded
// sleep-heavy sweep — the shape of a chaos timeout sweep, wall time
// dominated by timed kernel sleeps — run once on the real clock and
// once on the fast-forward clock, which jumps over all-idle sleep
// time. -seeds sets the sweep width (default 100; -n is not used, a
// seed's cost is its virtual sleep schedule). -fastforward x exits
// non-zero unless the real/fast-forward speedup is at least x; CI
// gates it at 10x. The real-clock row is sleep-bound and so stable
// under -baseline; the fast-forward row measures the substrate and
// swings with host load, which the speedup gate absorbs.
//
// -allocs appends a host-allocations-per-op column for the rows that
// collect it (figs 5 and 10) — a coarse whole-scenario count; the
// precise steady-state zero-alloc claims are pinned by
// testing.AllocsPerRun tests in internal/core.
//
// -memceiling N exits non-zero if the fig-10 thread ring's peak
// committed bytes exceed N (requires -fig to include 10).
//
// -json additionally writes the measured rows as a JSON document (see
// BENCH_baseline.json for the committed reference run), so successive
// runs can be diffed mechanically.
//
// -baseline compares the run against a previously written JSON
// document row by row (matched on figure and name) and exits non-zero
// if any row's per-op time regressed by more than -threshold (default
// 1.5x). CI runs this against the committed baseline as a regression
// gate.
//
// -traceoverhead measures the cost of the per-CPU event rings on the
// dispatch hot path: it times DispatchLatency with tracing off and on
// in nine back-to-back pairs and exits non-zero if the median of the
// per-pair traced/untraced ratios exceeds the given ratio.
// CI runs `-fig -1 -traceoverhead 1.10` as the ≤10% overhead gate.
//
// The absolute numbers measure the simulation substrate on the host;
// the reproduced result is the shape — which rows involve the kernel
// and by roughly what factor they are slower. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sunosmt/internal/benchkit"
)

// jsonRow is one benchmark row in the -json output.
type jsonRow struct {
	Figure  int     `json:"figure"`
	Name    string  `json:"name"`
	PaperUS float64 `json:"paper_us"`
	PerOpUS float64 `json:"per_op_us"`
	TotalNS int64   `json:"total_ns"`
	Ops     int     `json:"ops"`
	// AllocsPerOp is the host heap allocations per operation for rows
	// that collect it; -1 (and omitted) when not measured.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

type jsonDoc struct {
	Iterations int       `json:"iterations"`
	Rows       []jsonRow `json:"rows"`
}

func toJSONRows(fig int, rows []benchkit.Row) []jsonRow {
	out := make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		jr := jsonRow{
			Figure:  fig,
			Name:    r.Name,
			PaperUS: r.PaperUS,
			PerOpUS: float64(r.PerOp().Nanoseconds()) / 1e3,
			TotalNS: r.Measured.Nanoseconds(),
			Ops:     r.Ops,
		}
		if r.Allocs >= 0 && r.Ops > 0 {
			jr.AllocsPerOp = float64(r.Allocs) / float64(r.Ops)
		}
		out = append(out, jr)
	}
	return out
}

// formatAllocs renders the -allocs column for the rows that collected
// a count.
func formatAllocs(rows []benchkit.Row) string {
	var out string
	for _, r := range rows {
		if r.Allocs < 0 || r.Ops == 0 {
			continue
		}
		out += fmt.Sprintf("  %-28s %10.2f allocs/op (%d total)\n",
			r.Name, float64(r.Allocs)/float64(r.Ops), r.Allocs)
	}
	if out == "" {
		return ""
	}
	return "Host allocations (whole scenario, incl. harness):\n" + out
}

// compareBaseline checks doc against the baseline JSON at path,
// matching rows on (figure, name) and comparing per-op times. It
// prints one line per row and returns the rows that regressed by more
// than threshold. Rows present on only one side are reported but
// never fail the gate (the benchmark set may grow).
func compareBaseline(doc jsonDoc, path string, threshold float64) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base jsonDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type key struct {
		fig  int
		name string
	}
	baseBy := make(map[key]jsonRow, len(base.Rows))
	for _, r := range base.Rows {
		baseBy[key{r.Figure, r.Name}] = r
	}
	fmt.Printf("Baseline comparison vs %s (threshold %.2fx):\n", path, threshold)
	fmt.Printf("  %-28s %12s %12s %8s\n", "row", "base us/op", "now us/op", "ratio")
	var regressed []string
	for _, r := range doc.Rows {
		b, ok := baseBy[key{r.Figure, r.Name}]
		if !ok {
			fmt.Printf("  %-28s %12s %12.3f %8s (new row, not gated)\n", r.Name, "-", r.PerOpUS, "-")
			continue
		}
		delete(baseBy, key{r.Figure, r.Name})
		ratio := 0.0
		if b.PerOpUS > 0 {
			ratio = r.PerOpUS / b.PerOpUS
		}
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s (%.3f -> %.3f us/op, %.2fx)", r.Name, b.PerOpUS, r.PerOpUS, ratio))
		}
		fmt.Printf("  %-28s %12.3f %12.3f %7.2fx %s\n", r.Name, b.PerOpUS, r.PerOpUS, ratio, verdict)
	}
	for k := range baseBy {
		fmt.Printf("  %-28s missing from this run (fig %d)\n", k.name, k.fig)
	}
	return regressed, nil
}

// parseFigs turns the -fig value into the set of figures to run:
// "0" means all, "-1" means none, otherwise a comma-separated list
// drawn from 5-7 and 9-12 (e.g. "5,6,7").
func parseFigs(s string) (map[int]bool, error) {
	want := make(map[int]bool)
	switch s {
	case "0":
		s = "5,6,7,9,10,11,12"
	case "-1":
		return want, nil
	}
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || f < 5 || f > 12 || f == 8 {
			return nil, fmt.Errorf("-fig must be a comma list from 5-7 and 9-12, 0 (all) or -1 (none); got %q", s)
		}
		want[f] = true
	}
	return want, nil
}

func main() {
	n := flag.Int("n", 20000, "iterations per measurement")
	fig := flag.String("fig", "0", "figures to run: comma list from 5-7 and 9-12, 0 (all) or -1 (none)")
	jsonPath := flag.String("json", "", "also write rows as JSON to this file (- for stdout)")
	basePath := flag.String("baseline", "", "compare against this baseline JSON; exit 1 on regression")
	threshold := flag.Float64("threshold", 1.5, "per-op regression ratio tolerated by -baseline")
	traceOverhead := flag.Float64("traceoverhead", 0, "if > 0, gate traced-vs-untraced dispatch latency at this ratio")
	allocs := flag.Bool("allocs", false, "print host allocations per op for rows that collect them")
	memCeiling := flag.Int64("memceiling", 0, "if > 0, fail when the fig-10 ring's peak committed bytes exceed this")
	seeds := flag.Int("seeds", 100, "seed count for the fig-11 sleep sweep")
	ffGate := flag.Float64("fastforward", 0, "if > 0, fail unless the fig-11 real/fast-forward speedup is at least this")
	lockFull := flag.Bool("lockfull", false, "run the full fig-12 lock-policy matrix (nightly width)")
	flag.Parse()

	want, err := parseFigs(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtbench:", err)
		os.Exit(2)
	}
	printAllocs := func(rows []benchkit.Row) {
		if *allocs {
			if s := formatAllocs(rows); s != "" {
				fmt.Print(s)
				fmt.Println()
			}
		}
	}
	doc := jsonDoc{Iterations: *n}
	if want[5] {
		rows := benchkit.Figure5(*n)
		fmt.Print(benchkit.FormatTable("Figure 5: Thread creation time", rows))
		fmt.Println()
		printAllocs(rows)
		doc.Rows = append(doc.Rows, toJSONRows(5, rows)...)
	}
	if want[6] {
		rows := benchkit.Figure6(*n)
		fmt.Print(benchkit.FormatTable("Figure 6: Thread synchronization time", rows))
		fmt.Println()
		doc.Rows = append(doc.Rows, toJSONRows(6, rows)...)
	}
	if want[7] {
		rows := benchkit.Figure7(*n)
		fmt.Print(benchkit.FormatTable("Priority inversion (turnstile inheritance on/off; not in paper)", rows))
		fmt.Println()
		doc.Rows = append(doc.Rows, toJSONRows(7, rows)...)
	}
	var fig9 *benchkit.Fig9Stats
	if want[9] {
		rows, stats := benchkit.Figure9(*n)
		fig9 = &stats
		fmt.Print(benchkit.FormatTable("Cross-CPU wakeup latency, best-of-5 medians (not in paper)", rows))
		fmt.Printf("  dispatches %d, steals %d (%.2f per 100 dispatches; informational)\n\n",
			stats.Dispatches, stats.Steals,
			float64(stats.Steals*100)/float64(max(stats.Dispatches, 1)))
		doc.Rows = append(doc.Rows, toJSONRows(9, rows)...)
	}
	var scale *benchkit.ScaleStats
	if want[10] {
		rows, stats := benchkit.Figure10(*n)
		scale = &stats
		fmt.Print(benchkit.FormatTable(
			fmt.Sprintf("Thread scale tier, n=%d (not in paper)", stats.Threads), rows))
		fmt.Printf("  reserved/thread %d B, committed/thread %d B, ring peak committed %d B\n\n",
			stats.ReservedPerThread, stats.CommittedPerThread, stats.RingPeakCommitted)
		printAllocs(rows)
		doc.Rows = append(doc.Rows, toJSONRows(10, rows)...)
	}
	var fig11 []benchkit.Row
	if want[11] {
		fig11 = benchkit.Figure11(*seeds)
		fmt.Print(benchkit.FormatTable(
			fmt.Sprintf("Sleep-heavy sweep, %d seeds: real clock vs fast-forward (not in paper)", *seeds), fig11))
		fmt.Println()
		doc.Rows = append(doc.Rows, toJSONRows(11, fig11)...)
	}
	if want[12] {
		width := "default"
		if *lockFull {
			width = "full"
		}
		cells, rows := benchkit.Figure12(*n, *lockFull)
		fmt.Print(benchkit.FormatLockMatrix(
			fmt.Sprintf("Lock-policy shootout, %s matrix: lock-wait latency percentiles (not in paper)", width), cells))
		fmt.Println()
		doc.Rows = append(doc.Rows, toJSONRows(12, rows)...)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtbench:", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mtbench:", err)
			os.Exit(1)
		}
	}
	if *basePath != "" {
		fmt.Println()
		regressed, err := compareBaseline(doc, *basePath, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtbench:", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "mtbench: %d row(s) regressed beyond %.2fx:\n", len(regressed), *threshold)
			for _, r := range regressed {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			os.Exit(1)
		}
	}
	if fig9 != nil && fig9.Steals == 0 {
		fmt.Fprintln(os.Stderr, "mtbench: fig 9 recorded zero steals across all trials: spinner occupancy no longer forces queued wakeups")
		os.Exit(1)
	}
	if *memCeiling > 0 {
		if scale == nil {
			fmt.Fprintln(os.Stderr, "mtbench: -memceiling requires -fig to include 10")
			os.Exit(2)
		}
		fmt.Printf("Memory ceiling gate: ring peak committed %d B, ceiling %d B\n",
			scale.RingPeakCommitted, *memCeiling)
		if scale.RingPeakCommitted > *memCeiling {
			fmt.Fprintf(os.Stderr, "mtbench: peak committed %d B exceeds ceiling %d B\n",
				scale.RingPeakCommitted, *memCeiling)
			os.Exit(1)
		}
	}
	if *ffGate > 0 {
		if fig11 == nil {
			fmt.Fprintln(os.Stderr, "mtbench: -fastforward requires -fig to include 11")
			os.Exit(2)
		}
		wall, ff := fig11[0].PerOp(), fig11[1].PerOp()
		speedup := 0.0
		if ff > 0 {
			speedup = float64(wall) / float64(ff)
		}
		fmt.Printf("Fast-forward speedup gate: real %v/seed, fast-forward %v/seed, %.1fx (min %.1fx)\n",
			wall, ff, speedup, *ffGate)
		if speedup < *ffGate {
			fmt.Fprintf(os.Stderr, "mtbench: fast-forward speedup %.1fx is below the %.1fx gate\n",
				speedup, *ffGate)
			os.Exit(1)
		}
	}
	if *traceOverhead > 0 {
		if !gateTraceOverhead(*n, *traceOverhead) {
			os.Exit(1)
		}
	}
}

// gateTraceOverhead compares the dispatch hot path with the event
// rings off and on. Each round times one untraced and one traced run
// back to back, so a slow phase of the host (they last tens to
// hundreds of milliseconds — longer than a run) lands on both sides of
// a pair, and the gated figure is the median of the per-round ratios:
// a best-of on each side compared two runs made at different times,
// and on a one- or two-core host that spread is wider than the 10%
// being gated. Returns false if the median ratio exceeds maxRatio.
func gateTraceOverhead(n int, maxRatio float64) bool {
	const queued, rounds = 64, 9
	// Warm up both paths once so first-run effects (allocator, code
	// paths) don't land on one side only.
	benchkit.DispatchLatency(queued, n/4+1)
	benchkit.DispatchLatencyTraced(queued, n/4+1)
	var offs, ons []time.Duration
	ratios := make([]float64, rounds)
	for i := range ratios {
		off := benchkit.DispatchLatency(queued, n)
		on := benchkit.DispatchLatencyTraced(queued, n)
		offs, ons = append(offs, off), append(ons, on)
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	perOp := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2].Nanoseconds()) / float64(n) / 1e3
	}
	fmt.Printf("\nTrace overhead gate (DispatchLatency, %d queued, n=%d, median of %d back-to-back pairs):\n", queued, n, rounds)
	fmt.Printf("  trace off %10.3f us/op (median)\n", perOp(offs))
	fmt.Printf("  trace on  %10.3f us/op (median)\n", perOp(ons))
	fmt.Printf("  ratio     %10.3fx (median of pairs; range %.3f-%.3f; max %.2fx)\n", ratio, ratios[0], ratios[rounds-1], maxRatio)
	if ratio > maxRatio {
		fmt.Fprintf(os.Stderr, "mtbench: tracing overhead %.3fx exceeds %.2fx\n", ratio, maxRatio)
		return false
	}
	return true
}
