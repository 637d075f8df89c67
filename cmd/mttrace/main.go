// Command mttrace exercises the per-CPU binary event rings: it boots
// a machine with event tracing on, runs a contended multi-thread
// workload, then merges the rings and reports the event mix, the ring
// drop counter, and two latency histograms computed from the
// merged stream — kernel wakeup-to-dispatch latency and on-CPU run
// lengths. With -dump it also prints every retained record in global
// order.
//
// -perfetto writes the merged stream as Chrome trace JSON (open it at
// ui.perfetto.dev): a track per CPU showing which LWP held it, a
// track per thread with microstate-colored slices, wakeup flow
// arrows, and instants for preemptions, migrations and fast-forward
// jumps.
//
// -record and -replay are schedule time travel. -record <file> runs a
// deterministic workload variant — one CPU, a frozen manual clock,
// SIGWAITING growth off, chaos from -seed — recording every chaos
// decision, and writes the schedule journal (decisions plus the full
// event stream) to the file. -replay <file> reads a journal, re-runs
// the workload it describes with the dispatcher's decision points
// driven from the journal, and verifies the replayed event stream
// matches the recorded one; on divergence it prints the first
// mismatching event and exits non-zero. The determinism contract is
// the recording configuration: on the real clock, or with more CPUs,
// timeshare priorities drift with measured time and runs legitimately
// diverge.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"time"

	"sunosmt/internal/ktime"
	"sunosmt/mt"
)

func main() {
	ncpu := flag.Int("ncpu", 2, "number of simulated CPUs")
	ring := flag.Int("ring", 4096, "per-CPU event ring capacity")
	dump := flag.Bool("dump", false, "print every retained record in merge order")
	threads := flag.Int("threads", 6, "worker threads in the demo workload")
	iters := flag.Int("iters", 200, "iterations per worker")
	seed := flag.Uint64("seed", 1, "chaos seed for -record")
	record := flag.String("record", "", "record a deterministic run's schedule journal to this file")
	replay := flag.String("replay", "", "replay a schedule journal and verify the event stream matches")
	perfetto := flag.String("perfetto", "", "write the run's merged event stream as Chrome trace JSON to this file")
	flag.Parse()

	var sys *mt.System
	switch {
	case *record != "" && *replay != "":
		log.Fatal("mttrace: -record and -replay are mutually exclusive")
	case *record != "":
		sys = recordRun(*record, *seed, *threads, *iters, *ring, mt.PolicyDefault)
	case *replay != "":
		sys = replayRun(*replay)
	default:
		sys = mt.NewSystem(mt.Options{
			NCPU:      *ncpu,
			EventRing: *ring,
			TimeSlice: 200 * time.Microsecond,
		})
		runWorkload(sys, *threads, *iters)
	}

	ev := sys.Events()
	recs, dropped := ev.Snapshot()
	if *dump {
		for _, r := range recs {
			fmt.Println(r)
		}
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			log.Fatal(err)
		}
		if err := mt.WritePerfetto(f, recs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("perfetto trace: %s (%d events; open at ui.perfetto.dev)\n", *perfetto, len(recs))
	}

	counts := map[mt.EventKind]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	kinds := make([]mt.EventKind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Printf("retained %d events across %d rings (dropped %d)\n",
		len(recs), ev.NCPU()+1, dropped)
	for _, k := range kinds {
		fmt.Printf("  %-10v %d\n", k, counts[k])
	}

	fmt.Println("\nwakeup-to-dispatch latency (kernel run-queue wait after a wakeup):")
	printHist(wakeupLatencies(recs))
	fmt.Println("\non-CPU run length (dispatch to the CPU's next dispatch):")
	printHist(onCPURuns(recs))
}

// runDeterministic runs the record/replay workload: `threads` unbound
// threads contending one mutex on one CPU. The configuration is the
// replay determinism contract — one CPU, simulated path costs off,
// SIGWAITING pool growth off, and a frozen manual clock (timeshare
// priorities decay with *measured* CPU time, so on the real clock a
// slow run charges more usage than a fast one and dispatch priorities
// drift). Under it the event stream is a pure function of the chaos
// decision stream, which src records or replays. policy is the
// process-default lock policy the contended mutex runs under.
func runDeterministic(src *mt.ChaosSource, threads, iters, ring int, policy mt.LockPolicy) *mt.System {
	sys := mt.NewSystem(mt.Options{
		NCPU:             1,
		Clock:            ktime.NewManual(),
		Chaos:            src,
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
		EventRing:        ring,
	})
	p, err := sys.Spawn("mttrace-det", func(t *mt.Thread, _ any) {
		r := t.Runtime()
		var mu mt.Mutex
		shared := 0
		body := func(c *mt.Thread, _ any) {
			for j := 0; j < iters; j++ {
				mu.Enter(c)
				shared++
				c.Checkpoint()
				mu.Exit(c)
			}
		}
		ids := make([]mt.ThreadID, 0, threads)
		for i := 1; i < threads; i++ {
			c, err := r.Create(body, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, c.ID())
		}
		body(t, nil)
		for _, id := range ids {
			t.Wait(id)
		}
	}, nil, mt.ProcConfig{DisableSigwaiting: true, LockPolicy: policy})
	if err != nil {
		log.Fatal(err)
	}
	p.WaitExit()
	return sys
}

// recordRun executes the deterministic workload with a recording
// chaos source and writes the schedule journal, stamping the workload
// parameters into the journal metadata so replayRun can rebuild the
// identical run. The policy key is written only for a non-default
// policy, so a default recording is the same file it always was.
func recordRun(path string, seed uint64, threads, iters, ring int, policy mt.LockPolicy) *mt.System {
	src := mt.NewChaos(seed)
	src.StartRecording()
	sys := runDeterministic(src, threads, iters, ring, policy)
	if d := sys.Events().Dropped(); d != 0 {
		log.Fatalf("mttrace: event ring overflowed (dropped %d); raise -ring", d)
	}
	j := sys.Schedule()
	j.Meta["workload"] = "mttrace contended-mutex"
	j.Meta["threads"] = strconv.Itoa(threads)
	j.Meta["iters"] = strconv.Itoa(iters)
	j.Meta["ring"] = strconv.Itoa(ring)
	if policy != mt.PolicyDefault {
		j.Meta["policy"] = policy.String()
	}
	if err := j.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded schedule: %s (%d decisions, %d events, seed %d)\n",
		path, len(j.Decisions), len(j.Events), seed)
	return sys
}

// replayRun is -replay: it replays the journal and exits non-zero on
// any divergence.
func replayRun(path string) *mt.System {
	sys, n, err := replayJournal(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mttrace:", err)
		os.Exit(1)
	}
	fmt.Printf("replay ok: %s (%d events match, divergence detector silent)\n", path, n)
	return sys
}

// replayJournal reads a journal, re-runs the workload its metadata
// describes with chaos decisions served from the journal, and
// verifies the replayed event stream matches the recorded one: same
// events in the same order (hence the same count) and a silent
// decision-divergence detector. It returns the replayed system and
// the matched event count.
func replayJournal(path string) (*mt.System, int, error) {
	j, err := mt.ReadJournalFile(path)
	if err != nil {
		return nil, 0, err
	}
	if w := j.Meta["workload"]; w != "mttrace contended-mutex" {
		return nil, 0, fmt.Errorf("journal %s records workload %q, not one mttrace can replay", path, w)
	}
	metaInt := func(key string) int {
		n, aerr := strconv.Atoi(j.Meta[key])
		if aerr != nil && err == nil {
			err = fmt.Errorf("journal %s: bad %s metadata: %v", path, key, aerr)
		}
		return n
	}
	threads, iters, ring := metaInt("threads"), metaInt("iters"), metaInt("ring")
	if err != nil {
		return nil, 0, err
	}
	policy, name := mt.PolicyDefault, j.Meta["policy"] // absent from journals older than the key
	for _, p := range mt.LockPolicies() {
		if p.String() == name {
			policy = p
		}
	}
	if name != "" && policy == mt.PolicyDefault {
		return nil, 0, fmt.Errorf("journal %s: unknown lock policy %q", path, name)
	}
	src, err := mt.NewReplayChaos(j)
	if err != nil {
		return nil, 0, err
	}
	sys := runDeterministic(src, threads, iters, ring, policy)
	recs, _ := sys.Events().Snapshot()
	if d := mt.FirstEventDivergence(j.Events, recs); d != -1 {
		want, got := "(stream ended)", "(stream ended)"
		if d < len(j.Events) {
			want = j.Events[d].String()
		}
		if d < len(recs) {
			got = recs[d].String()
		}
		return nil, 0, fmt.Errorf("replay of %s diverged at event %d:\n  recorded: %s\n  replayed: %s", path, d, want, got)
	}
	if dv := src.Divergence(); dv != nil {
		return nil, 0, fmt.Errorf("replay of %s: decision divergence: %v", path, dv)
	}
	return sys, len(recs), nil
}

// runWorkload spawns a process mixing lock contention (wakeups),
// yielders (dispatches and preemptions), and sleepers, so every event
// kind shows up in the rings.
func runWorkload(sys *mt.System, nthreads, iters int) {
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn("mttrace", func(t *mt.Thread, _ any) {
		p := <-ch
		r := t.Runtime()
		r.SetConcurrency(2)
		var mu mt.Mutex
		shared := 0
		var ids []mt.ThreadID
		for i := 0; i < nthreads; i++ {
			c, err := r.Create(func(c *mt.Thread, _ any) {
				for j := 0; j < iters; j++ {
					mu.Enter(c)
					shared++
					mu.Exit(c)
					c.Yield()
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, c.ID())
		}
		s, err := r.Create(func(c *mt.Thread, _ any) {
			for j := 0; j < 10; j++ {
				p.Sleep(c, 100*time.Microsecond)
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, s.ID())
		for _, id := range ids {
			t.Wait(id)
		}
	}, nil, mt.ProcConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ch <- p
	p.WaitExit()
}

// wakeupLatencies pairs each EvWakeup with the next EvDispatch of the
// same (pid, lwp) in the merged stream: the time the woken LWP then
// spent on the kernel run queue.
func wakeupLatencies(recs []mt.EventRecord) []time.Duration {
	type key struct{ pid, lwp int32 }
	pending := map[key]time.Duration{}
	var out []time.Duration
	for _, r := range recs {
		k := key{r.PID, r.LWP}
		switch r.Kind {
		case mt.EvWakeup:
			pending[k] = r.When
		case mt.EvDispatch:
			if w, ok := pending[k]; ok {
				out = append(out, r.When-w)
				delete(pending, k)
			}
		}
	}
	return out
}

// onCPURuns measures, per CPU, the spacing between consecutive
// dispatches — how long each occupant held the processor.
func onCPURuns(recs []mt.EventRecord) []time.Duration {
	last := map[int32]time.Duration{}
	var out []time.Duration
	for _, r := range recs {
		if r.Kind != mt.EvDispatch {
			continue
		}
		if prev, ok := last[r.CPU]; ok {
			out = append(out, r.When-prev)
		}
		last[r.CPU] = r.When
	}
	return out
}

// printHist renders a power-of-two-bucketed latency histogram.
func printHist(ds []time.Duration) {
	if len(ds) == 0 {
		fmt.Println("  (no samples)")
		return
	}
	buckets := map[int]int{}
	var sum time.Duration
	for _, d := range ds {
		if d < 0 {
			d = 0
		}
		buckets[bits.Len64(uint64(d))]++
		sum += d
	}
	keys := make([]int, 0, len(buckets))
	for b := range buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	max := 0
	for _, b := range keys {
		if buckets[b] > max {
			max = buckets[b]
		}
	}
	for _, b := range keys {
		lo := time.Duration(0)
		if b > 0 {
			lo = time.Duration(1) << (b - 1)
		}
		n := buckets[b]
		bar := ""
		for i := 0; i < 40*n/max; i++ {
			bar += "#"
		}
		fmt.Printf("  < %-10v %6d %s\n", 2*lo, n, bar)
	}
	fmt.Printf("  samples %d, mean %v\n", len(ds), sum/time.Duration(len(ds)))
}
