package main

import (
	"fmt"
	"io"
	"slices"
)

// worsening returns by which share of a's median b's median is worse,
// in the metric's own direction (negative when b is better).
func worsening(s metricSpec, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		if (b > a) == (s.Better == "lower") {
			return 1
		}
		return -1
	}
	d := (b - a) / a
	if s.Better == "higher" {
		d = -d
	}
	return d
}

// better reports whether x reads better than y for the metric.
func better(s metricSpec, x, y float64) bool {
	if s.Better == "higher" {
		return x > y
	}
	return x < y
}

// verdict judges B against the base A for one (workload, metric) by
// the choosing-metrics rule: regressed when B's figure is worse than
// A's by more than the bound; unresolved when A's own repeats spread
// wider than the bound and the two sets of repeats overlap; improved
// when B wins at least nine tenths of the pairs and the figures differ
// by more than A's inter-quartile spread; unchanged otherwise.
func verdict(s metricSpec, a, b metricRecord) string {
	w := worsening(s, a.Figure, b.Figure)
	overlap := len(a.Values) > 0 && len(b.Values) > 0 &&
		slices.Min(a.Values) <= slices.Max(b.Values) && slices.Min(b.Values) <= slices.Max(a.Values)
	if w > s.Bound {
		return "regressed"
	}
	if spread(a.Values) > s.Bound && overlap {
		return "unresolved"
	}
	wins, pairs := 0, min(len(a.Values), len(b.Values))
	for i := 0; i < pairs; i++ {
		if better(s, b.Values[i], a.Values[i]) {
			wins++
		}
	}
	if pairs > 0 && wins*10 >= pairs*9 && -w > spread(a.Values) {
		return "improved"
	}
	return "unchanged"
}

// compareRecords prints one row per (workload, end-to-end metric) and
// returns how many pairs regressed and how many disagree by more than
// the metric's bound in either direction (the self-check's test). The
// verdict rests on the figures; the ratio of the medians over all
// repeats is printed beside it, where a slowdown that reaches only some
// repeats shows first.
func compareRecords(w io.Writer, a, b runRecord) (regressed, disagree int) {
	fmt.Fprintf(w, "A: commit %v seed %v   B: commit %v seed %v   (ratios are B/A, base A)\n",
		a.Meta["commit"], a.Meta["seed"], b.Meta["commit"], b.Meta["seed"])
	fmt.Fprintf(w, "%-17s %-20s %-7s %14s %14s %9s %9s %7s %7s  %s\n",
		"workload", "metric", "unit", "A", "B", "B/A", "medB/medA", "spreadA", "bound", "verdict")
	for _, name := range sortedWorkloads(a) {
		wa := a.Workloads[name]
		wb, ok := b.Workloads[name]
		if !ok {
			continue
		}
		for _, s := range endToEnd {
			ma, mb := wa.EndToEnd[s.Name], wb.EndToEnd[s.Name]
			v := verdict(s, ma, mb)
			ratio, medRatio := "-", "-"
			if ma.Figure != 0 {
				ratio = fmt.Sprintf("%.3f", mb.Figure/ma.Figure)
			}
			if ma.Median != 0 {
				medRatio = fmt.Sprintf("%.3f", mb.Median/ma.Median)
			}
			d := worsening(s, ma.Figure, mb.Figure)
			if v == "regressed" && !s.Ungated {
				regressed++
			}
			if d > s.Bound || -d > s.Bound {
				v += " (differs by more than the bound)"
				if !s.Ungated {
					disagree++
				}
			}
			if s.Ungated {
				v += " [not gated]"
			}
			fmt.Fprintf(w, "%-17s %-20s %-7s %14.4f %14.4f %9s %9s %6.1f%% %6.1f%%  %s\n",
				name, s.Name, s.Unit, ma.Figure, mb.Figure, ratio, medRatio, 100*spread(ma.Values), 100*s.Bound, v)
		}
	}
	return regressed, disagree
}
