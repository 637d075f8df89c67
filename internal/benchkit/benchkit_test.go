package benchkit

import (
	"strings"
	"testing"
)

// Small-n smoke tests: the measurement procedures complete, return
// positive durations, and keep the paper's coarse ordering.

func TestFigure5Smoke(t *testing.T) {
	rows := Figure5(200)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Ops <= 0 {
			t.Fatalf("row %q not measured: %+v", r.Name, r)
		}
	}
	if rows[1].PerOp() <= rows[0].PerOp() {
		t.Fatalf("bound create (%v) not slower than unbound (%v)",
			rows[1].PerOp(), rows[0].PerOp())
	}
}

func TestFigure6Smoke(t *testing.T) {
	rows := Figure6(200)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Fatalf("row %q not measured", r.Name)
		}
	}
	// Order-tolerant assertions. The robust invariant is the order-of-
	// magnitude gap between the setjmp baseline and either parking
	// sync path. The paper's unbound-vs-bound adjacency is NOT gated
	// strictly: the two rows sit within a few percent of each other in
	// this simulation and flip freely under -race on one-core hosts,
	// so the gate only requires them to be in the same ballpark (a
	// bound path that got 2x cheaper than unbound stopped doing its
	// kernel round trips — that is a real regression).
	base, unbound, bound := rows[0].PerOp(), rows[1].PerOp(), rows[2].PerOp()
	if unbound <= base {
		t.Fatalf("unbound sync (%v) not slower than setjmp baseline (%v)", unbound, base)
	}
	if bound <= base {
		t.Fatalf("bound sync (%v) not slower than setjmp baseline (%v)", bound, base)
	}
	if bound < unbound/2 {
		t.Fatalf("bound sync (%v) less than half of unbound (%v): kernel path lost", bound, unbound)
	}
}

// TestFigure9Smoke checks the structural property behind the fig 9
// rows: with low-priority spinners holding every CPU, each ping-pong
// wakeup must queue behind them, so the run exercises preemption and
// stealing and pairs at least some wakeups with cross-CPU dispatches.
// The wall-clock magnitudes are noisy on a shared host (CI gates them
// only loosely); steals happening at all is the deterministic part.
func TestFigure9Smoke(t *testing.T) {
	dispatches, steals, lat := StealWakeup(200)
	if dispatches == 0 {
		t.Fatal("no dispatches recorded")
	}
	if steals == 0 {
		t.Fatal("no steals: spinner occupancy no longer forces queued wakeups")
	}
	if len(lat) == 0 {
		t.Fatal("no cross-CPU wakeup latency samples paired from the event rings")
	}
}

func TestFormatTableShape(t *testing.T) {
	rows := []Row{
		{Name: "first", PaperUS: 10, Measured: 1000, Ops: 1},
		{Name: "second", PaperUS: 40, Measured: 4000, Ops: 1},
	}
	out := FormatTable("Title", rows)
	if !strings.Contains(out, "Title") || !strings.Contains(out, "first") {
		t.Fatalf("table missing pieces:\n%s", out)
	}
	// Ratio column of the second row: 4.00 both measured and paper.
	if !strings.Contains(out, "4.00") {
		t.Fatalf("ratio missing:\n%s", out)
	}
}

func TestDefaultIterationCounts(t *testing.T) {
	// n <= 0 falls back to defaults without panicking (tiny check
	// via the Ops fields of a real run would be slow; validate the
	// guard arithmetic instead).
	rows := Figure5(1)
	if rows[1].Ops < 1 {
		t.Fatalf("bound ops = %d", rows[1].Ops)
	}
}
