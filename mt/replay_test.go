package mt

// Schedule record/replay at the system level: a chaos run recorded
// into a schedule journal replays to the identical event sequence —
// including the failure it found. These are the acceptance gates for
// the time-travel PR; CI runs TestScheduleReplayReproducesFailure as
// its replay smoke step.

import (
	"bytes"
	"sync/atomic"
	"testing"

	"sunosmt/internal/ktime"
)

// runBrokenMutex runs the deterministic replay workload — the broken
// test-and-set lock from TestChaosCatchesBrokenMutex on one CPU with
// SIGWAITING growth off, so every decision point is reached in a
// reproducible order — and returns the violation count and the booted
// system (for its ring snapshot). The clock is a Manual at time zero:
// timeshare priorities decay with *measured* CPU time, so on the real
// clock a slow run (-race, a loaded CI box) charges more usage than a
// fast one and dispatch priorities drift; a frozen virtual clock
// removes the last wall-time input and makes the event stream a pure
// function of the decision stream.
func runBrokenMutex(t *testing.T, src *ChaosSource, iters int) (int32, *System) {
	t.Helper()
	sys := NewSystem(Options{
		NCPU:             1,
		Clock:            ktime.NewManual(),
		Chaos:            src,
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
		EventRing:        1 << 16,
	})
	var bm brokenMutex
	var holders, violations atomic.Int32
	p := spawn(t, sys, "replay-broken", ProcConfig{DisableSigwaiting: true}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		body := func(ct *Thread, _ any) {
			for j := 0; j < iters; j++ {
				bm.enter(ct)
				if holders.Add(1) != 1 {
					violations.Add(1)
				}
				ct.Checkpoint()
				if holders.Load() != 1 {
					violations.Add(1)
				}
				holders.Add(-1)
				bm.exit()
			}
		}
		c, err := rt.Create(body, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		body(tt, nil)
		tt.Wait(c.ID())
	})
	waitProc(t, p)
	return violations.Load(), sys
}

// TestScheduleReplayReproducesFailure: find a seed whose perturbed
// schedule breaks the broken mutex, record that run's full schedule
// journal, round-trip it through the serialized format, and replay
// it. The replay must reproduce the same invariant violations, the
// replayed event sequence must match the journal exactly, and the
// divergence detector must stay silent.
func TestScheduleReplayReproducesFailure(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := NewChaos(seed)
		src.StartRecording()
		v, sys := runBrokenMutex(t, src, 150)
		if v == 0 {
			continue
		}
		t.Logf("broken mutex caught at seed %d (%d violations); recording schedule", seed, v)
		j := sys.Schedule()
		j.Meta["workload"] = "broken-mutex 2x150"
		if len(j.Decisions) == 0 || len(j.Events) == 0 {
			t.Fatalf("schedule journal is empty: %d decisions, %d events",
				len(j.Decisions), len(j.Events))
		}
		if d := sys.Events().Dropped(); d != 0 {
			t.Fatalf("ring overflowed (dropped %d); enlarge EventRing", d)
		}

		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatal(err)
		}
		j2, err := ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		rsrc, err := NewReplayChaos(j2)
		if err != nil {
			t.Fatal(err)
		}
		v2, sys2 := runBrokenMutex(t, rsrc, 150)
		if v2 != v {
			t.Fatalf("replay saw %d violations, recording saw %d", v2, v)
		}
		recs, _ := sys2.Events().Snapshot()
		if d := FirstEventDivergence(j2.Events, recs); d != -1 {
			var want, got string
			if d < len(j2.Events) {
				want = j2.Events[d].String()
			}
			if d < len(recs) {
				got = recs[d].String()
			}
			t.Fatalf("replayed schedule diverges at event %d:\n  recorded: %s\n  replayed: %s",
				d, want, got)
		}
		if dv := rsrc.Divergence(); dv != nil {
			t.Fatalf("divergence detector fired on a faithful replay: %v", dv)
		}
		return
	}
	t.Fatal("no seed in 1..20 broke the broken mutex; the recording gate never ran")
}

// TestScheduleReplayDetectsWorkloadDrift: replaying a journal against
// a workload that runs longer than the recording must trip the
// divergence detector (site exhaustion), not silently free-run.
func TestScheduleReplayDetectsWorkloadDrift(t *testing.T) {
	src := NewChaos(3)
	src.StartRecording()
	if v, _ := runBrokenMutex(t, src, 40); v > 0 {
		t.Logf("recording run saw %d violations (fine for this test)", v)
	}
	rsrc, err := NewReplayChaos(src.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	runBrokenMutex(t, rsrc, 200)
	d := rsrc.Divergence()
	if d == nil {
		t.Fatal("a 5x-longer workload replayed without tripping the divergence detector")
	}
	if !d.Exhausted {
		t.Logf("divergence (input mismatch before exhaustion): %v", d)
	}
}
