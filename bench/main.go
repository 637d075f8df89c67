// Command bench is the repository's benchmark of the threads library:
// six closed-loop workloads written against mt, nine end-to-end
// metrics per workload, and a per-layer cost sheet (isolated probes,
// counter deltas, and spans bench records around its own calls into
// each layer). See README.md.
//
//	go run -C bench .                        # every workload, all metrics
//	go run -C bench . -workload winsys -spans /tmp/winsys.json
//	go run -C bench . -list
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -selfcheck
//
// The driver contract form measures one workload for a number of
// seconds and prints one JSON object as the last line:
//
//	bash bench/run.sh --workload winsys --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		wlFlag    = flag.String("workload", "", "comma-separated workloads to run (default: all; see -list)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		repeats   = flag.Int("repeats", 48, "untraced repeats per workload (an eighth as many traced ones are added)")
		seconds   = flag.Int("seconds", 0, "driver contract: measure one -workload for this many seconds and print one JSON line")
		traceMode = flag.Int("trace", 0, "driver contract: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		spans     = flag.String("spans", "", "write the first traced repeat's spans as Chrome trace JSON to this file")
		out       = flag.String("out", "", "write the run record (metadata, per-repeat values, quartiles) to this file, - for stdout")
		list      = flag.Bool("list", false, "print workload and metric names and exit")
		compare   = flag.Bool("compare", false, "compare two run records: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets of the same binary and fail if any end-to-end pair disagrees by more than its bound")

		worker  = flag.String("worker", "", "internal: run one repeat of this workload (or \"probes\") in this process")
		traced  = flag.Bool("traced", false, "internal: the worker's repeat records spans")
		twoThr  = flag.Bool("two-threads", false, "internal: the worker's repeat runs on two host threads")
		probeMS = flag.Int("probe-ms", int(probeRepeat/time.Millisecond), "internal: the probes worker's time per probe repeat, which the driver form shortens to fit its budget")
		fault   = flag.Bool("inject-fault", false, "test only: corrupt one output of every repeat so its check must fail")
	)
	flag.Parse()

	if *worker != "" {
		os.Exit(workerMain(*worker, *seed, *twoThr, *traced, *fault, *spans, time.Duration(*probeMS)*time.Millisecond))
	}
	if *list {
		printList(os.Stdout)
		return
	}
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}

	ws := workloads
	if *wlFlag != "" {
		ws = nil
		for _, name := range strings.Split(*wlFlag, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, joinNames(workloads))
				os.Exit(2)
			}
			ws = append(ws, w)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: cannot find own binary to start workers: %v\n", err)
		os.Exit(2)
	}
	o := runOpts{seed: *seed, repeats: max(*repeats, 1), fault: *fault, spans: *spans, probeFor: probeRepeat, exe: exe}

	switch {
	case *seconds > 0:
		if len(ws) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -seconds measures exactly one -workload")
			os.Exit(2)
		}
		os.Exit(contractMain(ws[0], o, time.Duration(*seconds)*time.Second, *traceMode != 0))
	case *selfcheck:
		os.Exit(selfcheckMain(ws, o))
	}

	runs, probeVals, notes := runSet(ws, o)
	rec := buildRecord(runs, probeVals, notes, o)
	if *out != "-" {
		printReport(os.Stdout, rec)
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write record: %v\n", err)
			os.Exit(2)
		}
	}
	os.Exit(exitCode(runs))
}

// exitCode is non-zero when any operation of any workload failed.
func exitCode(runs []*wlRun) int {
	for _, r := range runs {
		if r.failed > 0 || r.attempted == 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", r.w.Name, r.failed, r.attempted)
			return 1
		}
	}
	return 0
}

// workerMain runs one repeat (or the probes) in this process and
// prints the result as one JSON line.
func workerMain(name string, seed int64, twoThreads, traced, fault bool, spans string, probeFor time.Duration) int {
	// One host thread unless asked otherwise: the simulated CPUs are
	// multiplexed on it, so at most one goroutine runs at a time and
	// how simultaneously the host runs two threads — which changes from
	// hour to hour — stays out of the numbers (README, "One host
	// thread, and hotlock's second reading").
	runtime.GOMAXPROCS(1)
	if twoThreads {
		runtime.GOMAXPROCS(2)
	}
	var result any
	if name == "probes" {
		pp, _ := findWorkload("pingpong_unbound")
		result = runProbes(probeFor, probeReps, pp.Ops, seed)
	} else {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		res, err := runRepeat(w, w.Ops, seed, traced, fault, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		result = res
	}
	b, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	return 0
}

// contractMain is the driver form: repeats of one workload until the
// measuring time is used up, then one JSON line.
func contractMain(w workload, o runOpts, budget time.Duration, layerSheet bool) int {
	r := &wlRun{w: w}
	start := time.Now()
	var layer map[string]float64
	if !layerSheet {
		// At least three repeats so the reported median is one.
		for len(r.untraced) < 3 || time.Since(start) < budget {
			before := r.attempted
			r.repeat(o, repUntraced)
			if r.failed > 0 || r.attempted == before {
				break
			}
		}
	} else {
		// Half the time on pairs of an untraced and a traced repeat
		// (their ratio is the tracing overhead) and, where the workload
		// has one, a repeat on two host threads; the rest on the
		// probes, each of which spends about as long calibrating as
		// measuring.
		for len(r.traced) < 1 || time.Since(start) < budget/2 {
			before := r.attempted
			r.repeat(o, repUntraced)
			r.repeat(o, repTraced)
			if w.TwoThreads {
				r.repeat(o, repTwoThreads)
			}
			if r.failed > 0 || r.attempted == before {
				break
			}
		}
		o.probeFor = max(budget*2/5/time.Duration(2*probeReps*(len(probes)+4)), 10*time.Millisecond)
		probeVals, err := runProbesChild(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probes lost: %v\n", err)
			r.failed = max(r.failed, 1)
		}
		layer = r.layer(probeVals)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, n)
	}
	if r.failed > 0 || r.attempted == 0 {
		// No result line: the driver takes a non-zero exit as failure.
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.Name, r.failed, r.attempted)
		return 1
	}
	if err := contractLine(os.Stdout, r, layer); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if regressed, _ := compareRecords(os.Stdout, a, b); regressed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d (workload, metric) pairs regressed\n", regressed)
		return 1
	}
	return 0
}

// selfcheckMain runs two full sets with the same binary: whatever
// differs between them is noise, and must stay inside every bound for
// the benchmark to be able to resolve a change of that size.
func selfcheckMain(ws []workload, o runOpts) int {
	var recs [2]runRecord
	for i := range recs {
		runs, probeVals, notes := runSet(ws, o)
		recs[i] = buildRecord(runs, probeVals, notes, o)
		if code := exitCode(runs); code != 0 {
			return code
		}
	}
	_, disagree := compareRecords(os.Stdout, recs[0], recs[1])
	if disagree > 0 {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %d (workload, metric) pairs of the same binary disagree by more than their bound\n", disagree)
		return 1
	}
	fmt.Println("selfcheck: two sets of the same binary agree within every bound")
	return 0
}
