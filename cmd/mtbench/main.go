// Command mtbench regenerates the evaluation tables of "SunOS
// Multi-thread Architecture" (USENIX Winter '91): Figure 5 (thread
// creation time) and Figure 6 (thread synchronization time), printing
// measured numbers next to the paper's, with the paper's ratio
// columns — and checks, within the same run, that the measured ratios
// have the paper's shape. Numbers compared across commits are not its
// job: bench/ measures parent-vs-change pairs.
//
// Usage:
//
//	mtbench [-n iterations] [-fig 5,6,7,10,11|0|-1] [-json file] [-allocs] [-traceoverhead x]
//
// -fig accepts a comma list ("5,6,7") so CI can run figures in separate
// invocations; 0 is all of them, -1 none. Every figure carries its own
// check, and a violation prints the row and exits 1:
//
// Figures 5 and 6: each row's ratio to the row above it (the paper's
// second column: bound/unbound create; unbound sync/setjmp,
// bound/unbound sync, cross-process/bound sync) lies within a factor
// of 5 of the paper's, and is at least 2 wherever the paper's is
// (benchkit.CheckShape). Host speed moves every row of a run together;
// the ratios are a property of the commit.
//
// -fig 7 is the priority-inversion table (not in the paper): the
// contended-acquisition triangle with turnstile priority inheritance
// on and off. The "off" row reproduces the inversion and must cost at
// least 10x the "on" row.
//
// -fig 10 is the scale tier (not in the paper): mass-create of n
// stopped threads reporting reserved/committed bytes per thread, a
// thread ring driving n full lifecycles through the shell freelist
// and stack cache, a pairwise create/sync/exit chain, and a mass
// broadcast. The ring's peak committed bytes must stay under 4 MiB
// whatever n is: the footprint is bounded by the few threads alive at
// once. CI runs the tier at -n 100000 per PR, the nightly job at the
// full million.
//
// -fig 11 is the virtual-time tier (not in the paper): a 100-seed
// sleep-heavy sweep — the shape of a chaos timeout sweep, wall time
// dominated by timed kernel sleeps — run once on the real clock and
// once on the fast-forward clock, which jumps over all-idle sleep
// time (-n is not used, a seed's cost is its virtual sleep schedule).
// The fast-forward run must be at least 10x faster.
//
// -allocs appends a host-allocations-per-op column for the rows that
// collect it (figs 5 and 10) — a coarse whole-scenario count; the
// precise steady-state zero-alloc claims are pinned by
// testing.AllocsPerRun tests in internal/core.
//
// -json additionally writes the measured rows as a JSON document.
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
	"slices"
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

// figures is what -fig accepts; there is no figure 8, 9 or 12.
var figures = []int{5, 6, 7, 10, 11}

// parseFigs turns the -fig value into the set of figures to run:
// "0" means all, "-1" means none, otherwise a comma-separated list
// drawn from figures (e.g. "5,6,7").
func parseFigs(s string) (map[int]bool, error) {
	want := make(map[int]bool)
	switch s {
	case "0":
		for _, f := range figures {
			want[f] = true
		}
		return want, nil
	case "-1":
		return want, nil
	}
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || !slices.Contains(figures, f) {
			return nil, fmt.Errorf("-fig must be a comma list from %v, 0 (all) or -1 (none); got %q", figures, s)
		}
		want[f] = true
	}
	return want, nil
}

// The in-run checks of the tiers that are not paper tables.
const (
	// minInversion: fig 7's inversion row over its inheritance row.
	minInversion = 10
	// ringCeiling: fig 10's ring peak committed bytes, at any n.
	ringCeiling = 4 << 20
	// minFastForward: fig 11's real-clock sweep over its fast-forward one.
	minFastForward = 10
)

func main() {
	n := flag.Int("n", 20000, "iterations per measurement")
	fig := flag.String("fig", "0", "figures to run: comma list from 5,6,7,10,11, 0 (all) or -1 (none)")
	jsonPath := flag.String("json", "", "also write rows as JSON to this file (- for stdout)")
	traceOverhead := flag.Float64("traceoverhead", 0, "if > 0, gate traced-vs-untraced dispatch latency at this ratio")
	allocs := flag.Bool("allocs", false, "print host allocations per op for rows that collect them")
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
	var failed []string
	// atLeast prints and checks a tier's one ratio: row a over row b.
	atLeast := func(floor float64, what string, a, b benchkit.Row) {
		r := 0.0
		if b.PerOp() > 0 {
			r = float64(a.PerOp()) / float64(b.PerOp())
		}
		fmt.Printf("  %s: %v / %v = %.1fx (min %.0fx)\n\n", what, a.PerOp(), b.PerOp(), r, floor)
		if r < floor {
			failed = append(failed, fmt.Sprintf("%s %.1fx is below %.0fx", what, r, floor))
		}
	}
	doc := jsonDoc{Iterations: *n}
	if want[5] {
		rows := benchkit.Figure5(*n)
		fmt.Print(benchkit.FormatTable("Figure 5: Thread creation time", rows))
		fmt.Println()
		printAllocs(rows)
		failed = append(failed, benchkit.CheckShape(rows)...)
		doc.Rows = append(doc.Rows, toJSONRows(5, rows)...)
	}
	if want[6] {
		rows := benchkit.Figure6(*n)
		fmt.Print(benchkit.FormatTable("Figure 6: Thread synchronization time", rows))
		fmt.Println()
		failed = append(failed, benchkit.CheckShape(rows)...)
		doc.Rows = append(doc.Rows, toJSONRows(6, rows)...)
	}
	if want[7] {
		rows := benchkit.Figure7(*n)
		fmt.Print(benchkit.FormatTable("Priority inversion (turnstile inheritance on/off; not in paper)", rows))
		atLeast(minInversion, "inversion over inheritance", rows[1], rows[0])
		doc.Rows = append(doc.Rows, toJSONRows(7, rows)...)
	}
	if want[10] {
		rows, stats := benchkit.Figure10(*n)
		fmt.Print(benchkit.FormatTable(
			fmt.Sprintf("Thread scale tier, n=%d (not in paper)", stats.Threads), rows))
		fmt.Printf("  reserved/thread %d B, committed/thread %d B, ring peak committed %d B (ceiling %d B)\n\n",
			stats.ReservedPerThread, stats.CommittedPerThread, stats.RingPeakCommitted, ringCeiling)
		printAllocs(rows)
		if stats.RingPeakCommitted > ringCeiling {
			failed = append(failed, fmt.Sprintf("fig 10 ring peak committed %d B exceeds %d B", stats.RingPeakCommitted, ringCeiling))
		}
		doc.Rows = append(doc.Rows, toJSONRows(10, rows)...)
	}
	if want[11] {
		rows := benchkit.Figure11()
		fmt.Print(benchkit.FormatTable(
			fmt.Sprintf("Sleep-heavy sweep, %d seeds: real clock vs fast-forward (not in paper)", rows[0].Ops), rows))
		atLeast(minFastForward, "fast-forward speedup", rows[0], rows[1])
		doc.Rows = append(doc.Rows, toJSONRows(11, rows)...)
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
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "mtbench: %d check(s) failed:\n", len(failed))
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
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
