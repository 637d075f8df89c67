package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeOps shrinks a workload to 1/25 of a repeat (a repeat is itself
// an eighth of the second-long repeats the issue sized the workloads
// by, so 1/200 of those), and further under -short and the race
// detector.
func smokeOps(w workload) int {
	if testing.Short() || raceEnabled {
		return max(w.Ops/125, 64)
	}
	return max(w.Ops/25, 64)
}

// benchmarkJSON mirrors the BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and -list (spec.go,
// workloads.go) the same list, so later issues can cite names verbatim.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, -list has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		use(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), -list has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	var gated []metricSpec
	for _, s := range endToEnd {
		if s.Unlisted == "" {
			gated = append(gated, s)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, -list has %d gated ones", len(bj.EndToEnd), len(gated))
	}
	for i, s := range gated {
		use(s.Name)
		e := bj.EndToEnd[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better || e.Bound != s.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, -list has %+v", i, e, s)
		}
		if !unitRE.MatchString(s.Unit) || s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q or bound %v outside the contract", s.Name, s.Unit, s.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, -list has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		use(s.Name)
		e := bj.PerLayer[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, -list has %+v", i, e, s)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("per_layer %s: unit %q outside the contract", s.Name, s.Unit)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

// TestSmoke runs every workload small, untraced and traced, in this
// process: the checks must pass and the two result lines of the driver
// contract must carry exactly the names BENCHMARK.json lists, each a
// finite, non-negative number.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	probeVals := runProbes(time.Millisecond, 1, 2000, 1)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := &wlRun{w: w}
			for _, traced := range []bool{false, true} {
				res, err := runRepeat(w, smokeOps(w), 7, traced, false, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || len(res.Errors) != 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Ops, res.Errors)
				}
				if res.Ops != int64(smokeOps(w)) || res.LatSamples == 0 {
					t.Fatalf("traced=%v: ran %d ops with %d latency samples, want %d ops", traced, res.Ops, res.LatSamples, smokeOps(w))
				}
				r.attempted += res.Ops
				if traced {
					r.traced = append(r.traced, res)
				} else {
					r.untraced = append(r.untraced, res)
				}
			}

			var want []string
			for _, e := range bj.EndToEnd {
				want = append(want, e.Name)
			}
			checkLine(t, r, nil, want)
			want = nil
			for _, e := range bj.PerLayer {
				want = append(want, e.Name)
			}
			checkLine(t, r, r.layer(probeVals), want)

			if w.Name != "netsrv" {
				for _, name := range []string{"vfs.poll_us", "vfs.pipe_read_us", "vfs.pipe_write_ns"} {
					if v := r.traced[0].Layer[name]; v != 0 {
						t.Errorf("%s = %v outside netsrv: the layer table says vfs is bypassed", name, v)
					}
				}
			}
		})
	}
}

// checkLine prints the driver's result line and checks its metric
// names against want.
func checkLine(t *testing.T, r *wlRun, layer map[string]float64, want []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := contractLine(&buf, r, layer); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("result line: %v\n%s", err, buf.String())
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := line.Metrics[name]
		if !ok {
			t.Errorf("metric %s is not emitted", name)
			continue
		}
		// core.switch_residual_ns is a difference of separately
		// measured figures and may come out below zero at smoke size.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && name != "core.switch_residual_ns") {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// TestInjectedFaultFails breaks one output of every workload: the
// workload's own check must notice, count the repeat's operations as
// failed, and the run must exit non-zero.
func TestInjectedFaultFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runRepeat(w, smokeOps(w), 3, false, true, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != res.Ops || len(res.Errors) == 0 || res.Metrics["fail_ratio"] != 1 {
				t.Fatalf("fault not caught: failed %d of %d, fail_ratio %v, errors %v",
					res.Failed, res.Ops, res.Metrics["fail_ratio"], res.Errors)
			}
			r := &wlRun{w: w, attempted: res.Ops, failed: res.Failed}
			if exitCode([]*wlRun{r}) == 0 {
				t.Fatal("exit code 0 with failed operations")
			}
		})
	}
}

// TestQuartilesMatchPython pins the quartile method to CPython's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestPercentileSpreadsTies pins the grouped-data percentile: a rank
// that falls into a run of equal samples reads as a fraction of the way
// through the run, so two sample sets whose median is the same whole
// nanosecond still read differently.
func TestPercentileSpreadsTies(t *testing.T) {
	for _, c := range []struct {
		sorted []uint32
		p      float64
		want   float64
	}{
		{[]uint32{10, 20, 30}, 50, 20.5},
		{[]uint32{83, 83, 83, 83, 83, 83, 84, 84, 84, 84}, 50, 83 + 5.0/6},
		{[]uint32{83, 83, 83, 83, 83, 83, 83, 84, 84, 84}, 50, 83 + 5.0/7},
		{[]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 99, 100.9},
		{[]uint32{7}, 0, 7},
		{nil, 50, 0},
	} {
		if got := percentileU32(c.sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentileU32(%v, %v) = %v, want %v", c.sorted, c.p, got, c.want)
		}
	}
}

// TestFigure pins the across-repeat statistic: a tenth of the way from
// the best repeat to the worst, per metric and in the metric's own
// direction, by one definition for any repeat count.
func TestFigure(t *testing.T) {
	r := &wlRun{}
	for i := 1; i <= 41; i++ {
		r.untraced = append(r.untraced, repeatResult{Metrics: map[string]float64{
			"ops_per_s": float64(100 * i), "lat_p50_us": float64((i*7)%41 + 1),
		}})
	}
	if got := r.figure("ops_per_s"); got != 3700 {
		t.Errorf("ops_per_s figure = %v, want 3700 (fifth from the top of 100 .. 4100)", got)
	}
	if got := r.figure("lat_p50_us"); got != 5 {
		t.Errorf("lat_p50_us figure = %v, want 5 (fifth from the bottom of 1 .. 41)", got)
	}
	r.untraced = r.untraced[:6]
	if got := r.figure("ops_per_s"); got != 550 {
		t.Errorf("six repeats: figure = %v, want 550 (half-way from 600 to 500)", got)
	}
	r.untraced = r.untraced[:1]
	if got := r.figure("ops_per_s"); got != 100 {
		t.Errorf("one repeat: figure = %v, want 100", got)
	}
	r.attempted, r.failed = 200, 50
	if got := r.figure("fail_ratio"); got != 0.25 {
		t.Errorf("fail_ratio figure = %v, want 0.25 over every attempt", got)
	}
}

// TestVerdict covers the four outcomes of the compare rule.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	rec := func(vs ...float64) metricRecord { return newMetricRecord(lower, median(vs), vs) }
	for _, c := range []struct {
		s    metricSpec
		a, b metricRecord
		want string
	}{
		{lower, rec(100, 101, 99, 100, 100), rec(120, 121, 119, 120, 120), "regressed"},
		{higher, rec(100, 101, 99, 100, 100), rec(80, 81, 79, 80, 80), "regressed"},
		{lower, rec(100, 101, 99, 100, 100), rec(101, 100, 100, 99, 101), "unchanged"},
		{lower, rec(100, 140, 60, 100, 100), rec(104, 100, 100, 99, 101), "unresolved"},
		{lower, rec(100, 101, 99, 100, 100), rec(90, 91, 89, 90, 90), "improved"},
		{higher, rec(100, 101, 99, 100, 100), rec(110, 111, 109, 110, 110), "improved"},
	} {
		if got := verdict(c.s, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.s.Name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

// TestCompareCounts checks what -compare and -selfcheck exit on: a
// listed metric past its bound and any rise of fail_ratio count, a
// metric that is not gated gets its verdict printed and nothing more.
func TestCompareCounts(t *testing.T) {
	rec := func(over map[string]float64) runRecord {
		wr := workloadRecord{EndToEnd: map[string]metricRecord{}}
		for _, s := range endToEnd {
			v := 100.0
			if s.Name == "fail_ratio" {
				v = 0
			}
			if o, ok := over[s.Name]; ok {
				v = o
			}
			wr.EndToEnd[s.Name] = newMetricRecord(s, v, []float64{v, v, v})
		}
		return runRecord{Meta: map[string]any{}, Workloads: map[string]workloadRecord{"winsys": wr}}
	}
	for _, c := range []struct {
		over                map[string]float64
		regressed, disagree int
	}{
		{nil, 0, 0},
		{map[string]float64{"lat_p99_us": 200}, 0, 0},
		{map[string]float64{"lat_p95_us": 200}, 1, 1},
		{map[string]float64{"lat_p95_us": 50}, 0, 1},
		{map[string]float64{"fail_ratio": 0.01}, 1, 1},
	} {
		var out bytes.Buffer
		regressed, disagree := compareRecords(&out, rec(nil), rec(c.over))
		if regressed != c.regressed || disagree != c.disagree {
			t.Errorf("B = %v: regressed %d, disagree %d; want %d, %d\n%s", c.over, regressed, disagree, c.regressed, c.disagree, out.String())
		}
	}
}
