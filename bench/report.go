package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// metricRecord is one (workload, metric) result: the headline figure
// (wlRun.figure), and every repeat's raw value beside their median and
// quartiles, so spreads can be recomputed downstream.
type metricRecord struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Figure float64   `json:"figure"`
	Values []float64 `json:"values,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// workloadRecord is one workload's part of a run record.
type workloadRecord struct {
	Why        string                  `json:"why"`
	Ops        int                     `json:"ops_per_repeat"`
	Attempted  int64                   `json:"attempted"`
	Failed     int64                   `json:"failed"`
	LatSamples int                     `json:"lat_samples_per_repeat"`
	EndToEnd   map[string]metricRecord `json:"end_to_end"`
	PerLayer   map[string]metricRecord `json:"per_layer"`
	Spans      []spanRow               `json:"spans,omitempty"`
	Notes      []string                `json:"notes,omitempty"`
}

// runRecord is the whole run: what BENCH_baseline.json lacks — host
// metadata, sizes, spread — beside the numbers.
type runRecord struct {
	Meta      map[string]any            `json:"meta"`
	Workloads map[string]workloadRecord `json:"workloads"`
	Notes     []string                  `json:"notes,omitempty"`
	// Claim is always null: the benchmark measures, it claims nothing.
	Claim *string `json:"claim"`
}

func newMetricRecord(s metricSpec, figure float64, vs []float64) metricRecord {
	q1, q3 := quartiles(vs)
	return metricRecord{Unit: s.Unit, Better: s.Better, Figure: figure, Values: vs, Median: median(vs), Q1: q1, Q3: q3}
}

func buildRecord(runs []*wlRun, probeVals map[string]float64, notes []string, o runOpts) runRecord {
	ws := make([]workload, len(runs))
	for i, r := range runs {
		ws[i] = r.w
	}
	rec := runRecord{Meta: hostMeta(o, ws), Workloads: map[string]workloadRecord{}, Notes: notes}
	for _, r := range runs {
		wr := workloadRecord{
			Why:       r.w.Why,
			Ops:       r.w.Ops,
			Attempted: r.attempted,
			Failed:    r.failed,
			EndToEnd:  map[string]metricRecord{},
			PerLayer:  map[string]metricRecord{},
			Notes:     r.notes,
		}
		if len(r.untraced) > 0 {
			wr.LatSamples = r.untraced[0].LatSamples
		}
		for _, s := range endToEnd {
			wr.EndToEnd[s.Name] = newMetricRecord(s, r.figure(s.Name), r.values(s.Name))
		}
		layer := r.layer(probeVals)
		for _, s := range perLayer {
			v := layer[s.Name]
			wr.PerLayer[s.Name] = metricRecord{Unit: s.Unit, Better: s.Better, Figure: v, Median: v, Q1: v, Q3: v}
		}
		if len(r.traced) > 0 {
			wr.Spans = r.traced[0].Spans
		}
		rec.Workloads[r.w.Name] = wr
	}
	return rec
}

func writeRecord(path string, rec runRecord) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(append(b, '\n'))
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (runRecord, error) {
	var rec runRecord
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func sortedWorkloads(rec runRecord) []string {
	var names []string
	for _, w := range workloads {
		if _, ok := rec.Workloads[w.Name]; ok {
			names = append(names, w.Name)
		}
	}
	return names
}

// bypassChecks are the layer table's predictions that a workload does
// not touch a layer. They are printed with what was observed, never
// tuned to pass.
var bypassChecks = []struct {
	workload, metric, why string
	limit                 float64
}{
	{"pingpong_unbound", "sim.dispatches_per_op", "user-level switch: the simulated kernel dispatches nothing", 0.01},
	{"pingpong_bound", "core.pops_per_op", "bound threads: the library run queue is bypassed", 0.01},
	{"pingpong_unbound", "vfs.poll_us", "no vfs spans outside netsrv", 0},
	{"winsys", "vfs.poll_us", "no vfs spans outside netsrv", 0},
	{"dbshared", "vfs.poll_us", "no vfs spans outside netsrv", 0},
	{"hotlock", "vfs.poll_us", "no vfs spans outside netsrv", 0},
	{"winsys", "sim.dispatches_per_op", "no kernel blocking: the pool LWP is never re-dispatched", 0.01},
	{"hotlock", "usync.shared_enter_us", "process-local locks: no usync spans", 0},
}

// printReport writes every metric by name with its unit.
func printReport(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "sunosmt bench — commit %v, %v, nproc %v, GOMAXPROCS %v, seed %v, repeats %v\n",
		rec.Meta["commit"], rec.Meta["go"], rec.Meta["nproc"], rec.Meta["gomaxprocs"], rec.Meta["seed"], rec.Meta["repeats"])
	fmt.Fprintf(w, "clock: %v\n", rec.Meta["clock"])
	names := sortedWorkloads(rec)

	fmt.Fprintf(w, "\nEnd-to-end (tracing off; figure = a tenth of the way from the best untraced repeat to the worst; median, [q1 .. q3] and spread = (q3-q1)/median of the same repeats)\n")
	for _, name := range names {
		wr := rec.Workloads[name]
		fmt.Fprintf(w, "\n%s — %d ops/repeat, %d latency samples/repeat, attempted %d, failed %d\n",
			name, wr.Ops, wr.LatSamples, wr.Attempted, wr.Failed)
		for _, s := range endToEnd {
			m := wr.EndToEnd[s.Name]
			gate := fmt.Sprintf("bound %.0f%%", 100*s.Bound)
			if s.Ungated {
				gate = "not gated"
			}
			fmt.Fprintf(w, "  %-20s %14.4f %-7s median %.4f [%.4f .. %.4f]  spread %.1f%%  %s\n",
				s.Name, m.Figure, s.Unit, m.Median, m.Q1, m.Q3, 100*spread(m.Values), gate)
		}
		for _, n := range wr.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}

	fmt.Fprintf(w, "\nPer layer (median over the traced repeats + isolated probes; same probe value in every column)\n")
	fmt.Fprintf(w, "%-30s %-6s", "metric", "unit")
	for _, name := range names {
		fmt.Fprintf(w, " %16s", name)
	}
	fmt.Fprintln(w)
	for _, s := range perLayer {
		fmt.Fprintf(w, "%-30s %-6s", s.Name, s.Unit)
		for _, name := range names {
			fmt.Fprintf(w, " %16.4f", rec.Workloads[name].PerLayer[s.Name].Figure)
		}
		fmt.Fprintln(w)
	}

	for _, name := range names {
		wr := rec.Workloads[name]
		if len(wr.Spans) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nSpans of the first traced repeat, %s (self = span minus its child spans)\n", name)
		rows := slices.Clone(wr.Spans)
		slices.SortFunc(rows, func(a, b spanRow) int {
			return cmp.Compare(b.SelfNS*float64(b.Count), a.SelfNS*float64(a.Count))
		})
		for _, r := range rows {
			fmt.Fprintf(w, "  %-24s n=%-9d mean %12.1f ns  self %12.1f ns\n", r.Name, r.Count, r.MeanNS, r.SelfNS)
		}
		if wl, _ := findWorkload(name); wl.Coverage {
			fmt.Fprintf(w, "  residual: %.1f%% of mean op latency is covered by no span of the op\n",
				100*wr.PerLayer["bench.span_residual_frac"].Figure)
		}
	}

	fmt.Fprintf(w, "\nLayer-bypass predictions (observed, not tuned)\n")
	for _, c := range bypassChecks {
		wr, ok := rec.Workloads[c.workload]
		if !ok {
			continue
		}
		v := wr.PerLayer[c.metric].Figure
		verdict := "as predicted"
		if v > c.limit {
			verdict = "SURPRISE"
		}
		fmt.Fprintf(w, "  %-17s %-24s = %-10.4g (%s) — %s\n", c.workload, c.metric, v, c.why, verdict)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "\n\"claim\": null\n")
}

// printList writes the workload and metric names, the same ones
// BENCHMARK.json carries.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-18s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end_to_end:")
	for _, s := range endToEnd {
		unlisted := ""
		if s.Unlisted != "" {
			unlisted = "  (not in BENCHMARK.json: " + s.Unlisted + ")"
		}
		fmt.Fprintf(w, "  %-20s %-7s %-6s bound %.2f%s\n", s.Name, s.Unit, s.Better, s.Bound, unlisted)
	}
	fmt.Fprintln(w, "per_layer:")
	for _, s := range perLayer {
		fmt.Fprintf(w, "  %-30s %-6s %s\n", s.Name, s.Unit, s.Better)
	}
}

// contractLine prints the one JSON object the driver reads: the gated
// end-to-end metrics of an untraced run, or every per-layer metric of
// a traced one.
func contractLine(w io.Writer, r *wlRun, layer map[string]float64) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if layer == nil {
		for _, s := range endToEnd {
			if s.Unlisted == "" {
				metrics[s.Name] = mv{r.figure(s.Name), s.Unit}
			}
		}
	} else {
		for _, s := range perLayer {
			metrics[s.Name] = mv{layer[s.Name], s.Unit}
		}
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func joinNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
