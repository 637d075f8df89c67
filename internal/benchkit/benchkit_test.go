package benchkit

import (
	"strings"
	"testing"
	"time"
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

func TestFormatTableShape(t *testing.T) {
	rows := []Row{
		{Name: "first", PaperUS: 10, Measured: 1000, Ops: 1},
		{Name: "second", PaperUS: 40, Measured: 4000, Ops: 1},
		{Name: "zero", Measured: 0, Ops: 1},
		{Name: "tail", Measured: 2500, Ops: 1},
	}
	out := FormatTable("Title", rows)
	if !strings.Contains(out, "Title") || !strings.Contains(out, "first") {
		t.Fatalf("table missing pieces:\n%s", out)
	}
	// Ratio column of the second row: 4.00 both measured and paper.
	if strings.Count(out, "4.00") < 3 { // 4.00us, 4.00, 4.00
		t.Fatalf("ratio missing:\n%s", out)
	}
	// A row after a zero row has no ratio to the row above it: the cell
	// is empty, not a division by zero.
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("ratio to a zero row printed:\n%s", out)
	}
	if tail := strings.Fields(out[strings.Index(out, "tail"):]); len(tail) != 3 {
		t.Fatalf("row after the zero row = %q, want name, time and \"-\" only", tail)
	}
}

// TestShapeCheck: the in-run check mtbench holds figures 5 and 6 to.
func TestShapeCheck(t *testing.T) {
	us := func(name string, paper, measured float64) Row {
		return Row{Name: name, PaperUS: paper, Measured: time.Duration(measured * 1e3), Ops: 1}
	}
	for _, tc := range []struct {
		name string
		rows []Row
		bad  []string // names of the rows that must be reported
	}{
		{"paper's figure 5", []Row{us("unbound", 56, 56), us("bound", 2327, 2327)}, nil},
		{"paper's figure 6", []Row{us("setjmp", 59, 59), us("unbound", 158, 158), us("bound", 348, 348), us("cross", 301, 301)}, nil},
		{"this host, PR 21", []Row{us("setjmp", 59, 0.17), us("unbound", 158, 0.8), us("bound", 348, 3.9), us("cross", 301, 4.0)}, nil},
		{"bound == unbound create", []Row{us("unbound", 56, 1.3), us("bound", 2327, 1.3)}, []string{"bound"}},
		{"a ratio too high", []Row{us("setjmp", 59, 1), us("unbound", 158, (shapeFactor+1)*158.0/59)}, []string{"unbound"}},
		{"a ratio too low", []Row{us("bound", 348, shapeFactor+1), us("cross", 301, 301.0/348)}, []string{"cross"}},
		{"within the factor but under 2", []Row{us("setjmp", 59, 1), us("unbound", 158, 1.9)}, []string{"unbound"}},
		{"row never measured", []Row{us("unbound", 56, 1), us("bound", 2327, 0)}, []string{"bound"}},
		{"no paper numbers", []Row{us("inheritance", 0, 5), us("inversion", 0, 5)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := CheckShape(tc.rows)
			if len(got) != len(tc.bad) {
				t.Fatalf("violations = %q, want rows %q", got, tc.bad)
			}
			for i, name := range tc.bad {
				if !strings.HasPrefix(got[i], name+":") {
					t.Fatalf("violation %d = %q, want row %q", i, got[i], name)
				}
			}
		})
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
