package chaos

import (
	"bytes"
	"testing"
	"time"

	"sunosmt/internal/trace"
)

// drive consults a fixed mix of sites and returns every answer, so a
// recorded source and its replay can be compared decision for
// decision.
func driveSites(s *Source) []int64 {
	var out []int64
	for i := 0; i < 200; i++ {
		b := int64(0)
		if s.Preempt() {
			b = 1
		}
		out = append(out, b)
		out = append(out, int64(s.PickReorder(4)))
		out = append(out, int64(s.WakeReorder(3)))
		out = append(out, int64(s.Jitter(time.Duration(i+1)*time.Millisecond)))
	}
	return out
}

// TestRecordReplayRoundTrip: a recorded decision stream serialized
// through the journal format and replayed answers every consultation
// identically, with the divergence detector silent.
func TestRecordReplayRoundTrip(t *testing.T) {
	rec := New(DefaultConfig(7))
	rec.StartRecording()
	want := driveSites(rec)

	var buf bytes.Buffer
	if err := rec.Schedule().Write(&buf); err != nil {
		t.Fatal(err)
	}
	j, err := trace.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplay(j)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replaying() {
		t.Fatal("NewReplay source not in replay mode")
	}
	rep.StartRecording()
	got := driveSites(rep)
	if len(got) != len(want) {
		t.Fatalf("replay answered %d decisions, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d: replay answered %d, recorded %d", i, got[i], want[i])
		}
	}
	if d := rep.Divergence(); d != nil {
		t.Fatalf("divergence on a faithful replay: %v", d)
	}
	// The replay's own decision stream must match the recording too.
	a, b := rec.Schedule().Decisions, rep.Schedule().Decisions
	if len(a) != len(b) {
		t.Fatalf("decision streams differ in length: recorded %d, replayed %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestReplayDetectsInputMismatch: consulting a site with a different
// candidate count than recorded is flagged as the first divergence,
// and the replay answers "no perturbation" from then on at that site.
func TestReplayDetectsInputMismatch(t *testing.T) {
	rec := New(DefaultConfig(7))
	rec.StartRecording()
	for i := 0; i < 50; i++ {
		rec.PickReorder(4)
	}
	rep, err := NewReplay(rec.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	rep.PickReorder(4)
	if d := rep.Divergence(); d != nil {
		t.Fatalf("unexpected divergence: %v", d)
	}
	rep.PickReorder(5) // live run reached the site in a different state
	d := rep.Divergence()
	if d == nil {
		t.Fatal("input mismatch not detected")
	}
	if d.Site != "sim.pick" || d.Index != 1 || d.Exhausted || d.GotN != 5 || d.Want.N != 4 {
		t.Fatalf("divergence = %+v, want sim.pick index 1, got-n 5, want-n 4", d)
	}
	// Only the first divergence is kept.
	rep.PickReorder(6)
	if d2 := rep.Divergence(); d2 != d {
		t.Fatalf("later divergence replaced the first: %v", d2)
	}
}

// TestReplayDetectsExhaustion: consulting a site more often than the
// journal holds is the other divergence class.
func TestReplayDetectsExhaustion(t *testing.T) {
	rec := New(DefaultConfig(9))
	rec.StartRecording()
	rec.Preempt()
	rep, err := NewReplay(rec.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	rep.Preempt()
	rep.Preempt()
	d := rep.Divergence()
	if d == nil || !d.Exhausted || d.Site != "sim.preempt" || d.Index != 1 {
		t.Fatalf("divergence = %+v, want sim.preempt exhausted at index 1", d)
	}
}

// TestNewReplayRequiresConfig: a journal without the recorded config
// cannot be replayed (the active-site set would be unknown).
func TestNewReplayRequiresConfig(t *testing.T) {
	if _, err := NewReplay(trace.NewJournal()); err == nil {
		t.Fatal("NewReplay accepted a journal without chaos-config metadata")
	}
}
