package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childDeadline is the watchdog on one repeat. The product has
// check-then-sleep sites that can lose a wake-up and hang (README,
// Known hazards), so every repeat runs in a child process that can be
// killed.
const childDeadline = 60 * time.Second

// runOpts is what a set of runs is made with.
type runOpts struct {
	seed    int64
	repeats int
	fault   bool
	spans   string // Chrome-trace output of the traced repeats, "" for none
	// probeFor is how long one repeat of an isolated probe runs.
	probeFor time.Duration
	exe      string
}

// wlRun collects one workload's repeats.
type wlRun struct {
	w        workload
	untraced []repeatResult
	traced   []repeatResult
	// twoThreads holds untraced repeats made on two host threads, for
	// the workloads that ask for that reading.
	twoThreads []repeatResult
	// attempted and failed count operations over every attempt,
	// including repeats whose child crashed or was killed.
	attempted, failed int64
	notes             []string
}

// child runs the benchmark binary as a worker and decodes the JSON
// object on the last line of its standard output.
func child(o runOpts, out any, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, o.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run() // Run waits for the child to end, also when killed
	if ctx.Err() != nil {
		return fmt.Errorf("watchdog: no result within %v", childDeadline)
	}
	if err != nil {
		return fmt.Errorf("%w: %s", err, lastLines(stderr.String(), 6))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return fmt.Errorf("decode worker result: %w", err)
	}
	return nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// repeatKind says what a repeat is for.
type repeatKind int

const (
	repUntraced   repeatKind = iota // feeds the end-to-end figures
	repTraced                       // records spans; feeds the per-layer sheet
	repTwoThreads                   // untraced, on two host threads; per-layer sheet
)

// repeat runs one repeat of r's workload in a child. A child that
// crashes or is killed by the watchdog is retried once; each lost
// attempt counts all of its operations as failed.
func (r *wlRun) repeat(o runOpts, kind repeatKind) {
	args := []string{
		"-worker", r.w.Name,
		"-seed", strconv.FormatInt(o.seed, 10),
	}
	switch kind {
	case repTraced:
		args = append(args, "-traced")
		if o.spans != "" {
			args = append(args, "-spans", o.spans)
		}
	case repTwoThreads:
		args = append(args, "-two-threads")
	}
	if o.fault {
		args = append(args, "-inject-fault")
	}
	ops := int64(r.w.Ops)
	for attempt := 0; attempt < 2; attempt++ {
		var res repeatResult
		err := child(o, &res, args...)
		if err != nil {
			r.attempted += ops
			r.failed += ops
			r.notes = append(r.notes, fmt.Sprintf("attempt lost: %v", err))
			continue
		}
		r.attempted += res.Ops
		r.failed += res.Failed
		for _, e := range res.Errors {
			r.notes = append(r.notes, "check failed: "+e)
		}
		switch kind {
		case repUntraced:
			r.untraced = append(r.untraced, res)
		case repTraced:
			r.traced = append(r.traced, res)
		case repTwoThreads:
			r.twoThreads = append(r.twoThreads, res)
		}
		return
	}
}

// runProbesChild measures the isolated probes in a child process.
func runProbesChild(o runOpts) (map[string]float64, error) {
	out := map[string]float64{}
	err := child(o, &out,
		"-worker", "probes",
		"-seed", strconv.FormatInt(o.seed, 10),
		"-probe-ms", strconv.Itoa(int(o.probeFor/time.Millisecond)))
	return out, err
}

// values returns metric name's value in every untraced repeat.
func (r *wlRun) values(name string) []float64 {
	vs := make([]float64, 0, len(r.untraced))
	for _, u := range r.untraced {
		vs = append(vs, u.Metrics[name])
	}
	return vs
}

// figureAt is how far from its best repeat towards its worst a
// workload's figures are read (fromBest): a tenth of the way.
//
// The host runs the same binary at two speeds, in stretches of
// 50-600 ms that cover a few per cent of the time in quiet periods and
// most of it in noisy ones (README, Steadiness); they only ever slow a
// repeat down, so the repeats they missed are the best ones. Over two
// ten-seed sets of 20 s runs the medians of the runs spread up to 26 %
// within a set on the throughput, median-latency and CPU metrics, their
// better quartiles up to 20 %, their better tenths up to 13 %.
const figureAt = 0.1

// figure is the workload's headline value for one end-to-end metric,
// read from all its untraced repeats at figureAt. A change that makes
// the product slower moves it with everything else; one that slows only
// some repeats shows first in the median and quartiles over all
// repeats, which the report, the run record and -compare carry beside
// it. fail_ratio differs: it is taken over every attempt, so a lost
// repeat shows.
func (r *wlRun) figure(name string) float64 {
	if name == "fail_ratio" {
		if r.attempted == 0 {
			return 1
		}
		return float64(r.failed) / float64(r.attempted)
	}
	return fromBest(r.values(name), higherIsBetter(name), figureAt)
}

// layer returns the workload's per-layer figures: the traced repeats'
// medians, the probes, and the cost of bench's own tracing.
func (r *wlRun) layer(probeVals map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range perLayer {
		var vs []float64
		for _, t := range r.traced {
			if v, ok := t.Layer[s.Name]; ok {
				vs = append(vs, v)
			}
		}
		out[s.Name] = median(vs) // 0 where no traced repeat has the metric
	}
	maps.Copy(out, probeVals)
	// The same statistic on both sides.
	var tracedOps []float64
	for _, t := range r.traced {
		tracedOps = append(tracedOps, t.Metrics["ops_per_s"])
	}
	if v := fromBest(tracedOps, true, figureAt); v > 0 {
		out["bench.trace_overhead_ratio"] = r.figure("ops_per_s") / v
	}
	// On two host threads a disturbance can also help (both threads on
	// one CPU stop the lock words bouncing between caches), so the best
	// repeats are not the undisturbed ones: medians.
	for metric, from := range twoThreadMetrics {
		var vs []float64
		for _, t := range r.twoThreads {
			vs = append(vs, t.Metrics[from])
		}
		out[metric] = median(vs)
	}
	return out
}

// spansPathFor gives each workload its own Chrome-trace file when more
// than one is traced in a run.
func spansPathFor(base, name string, many bool) string {
	if base == "" || !many {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + name + ext
}

// runSet runs the default set: repeats untraced repeats per workload
// and an eighth as many traced ones, interleaved round-robin across
// workloads so host drift hits all of them alike, then the probes. The
// first traced repeat writes the spans file; a workload with a
// two-thread reading gets one such repeat per traced one.
func runSet(ws []workload, o runOpts) ([]*wlRun, map[string]float64, []string) {
	runs := make([]*wlRun, len(ws))
	for i, w := range ws {
		runs[i] = &wlRun{w: w}
	}
	for rep := 0; rep < o.repeats; rep++ {
		for _, r := range runs {
			r.repeat(o, repUntraced)
		}
	}
	for rep := 0; rep < max(o.repeats/8, 1); rep++ {
		for _, r := range runs {
			ro := o
			ro.spans = ""
			if rep == 0 {
				ro.spans = spansPathFor(o.spans, r.w.Name, len(runs) > 1)
			}
			r.repeat(ro, repTraced)
			if r.w.TwoThreads {
				r.repeat(o, repTwoThreads)
			}
		}
	}
	var notes []string
	probeVals, err := runProbesChild(o)
	if err != nil {
		notes = append(notes, fmt.Sprintf("probes lost: %v", err))
	}
	return runs, probeVals, notes
}

// gitCommit names the commit being measured, when the checkout is a
// git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// hostMeta is the metadata every run record carries.
func hostMeta(o runOpts, ws []workload) map[string]any {
	sizes := map[string]int{}
	for _, w := range ws {
		sizes[w.Name] = w.Ops
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": 1, // of the workers; 2 in the repeats behind twoThreadMetrics
		"commit":     gitCommit(),
		"seed":       o.seed,
		"repeats":    o.repeats,
		"ops":        sizes,
		"clock":      "host (the simulation's default clock is the host clock; no workload sleeps, so fast-forward is not involved)",
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}
