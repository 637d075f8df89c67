package chaos

import (
	"testing"
	"time"

	"sunosmt/internal/trace"
)

// drive runs a fixed query script against a fresh source and returns
// the recorded decision stream.
func drive(seed uint64) []trace.Decision {
	s := New(DefaultConfig(seed))
	s.StartRecording()
	for i := 0; i < 400; i++ {
		s.Preempt()
		s.ThreadPreempt()
		s.PickReorder(3)
		s.RunqReorder(4)
		s.WakeReorder(2)
		s.SpuriousWakeup()
		s.EINTR()
		s.Sigwaiting()
		s.Jitter(time.Millisecond)
	}
	return s.Schedule().Decisions
}

func TestSameSeedSameJournal(t *testing.T) {
	a := drive(42)
	b := drive(42)
	fired := 0
	for _, d := range a {
		if d.Site == "sim.preempt" && d.Value != 0 {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("seed 42 never fired sim.preempt over 400 rounds; rates too low to explore anything")
	}
	if len(a) != len(b) {
		t.Fatalf("decision streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision stream diverges at %d:\n  run1: %+v\n  run2: %+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := drive(1)
	b := drive(2)
	for i := range a { // same script: same length, same sites
		if a[i] != b[i] {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical decision streams")
}

func TestNilSourceIsInert(t *testing.T) {
	var s *Source
	if s.Enabled() || s.Preempt() || s.ThreadPreempt() || s.SpuriousWakeup() ||
		s.EINTR() || s.Sigwaiting() {
		t.Fatal("nil source fired")
	}
	if s.PickReorder(8) != -1 || s.RunqReorder(8) != -1 || s.WakeReorder(8) != -1 {
		t.Fatal("nil source chose an index")
	}
	if d := s.Jitter(time.Second); d != time.Second {
		t.Fatalf("nil source jittered: %v", d)
	}
	if s.Recording() || len(s.Schedule().Decisions) != 0 || s.Seed() != 0 {
		t.Fatal("nil source has state")
	}
}

func TestDecisionsAreCounterIndexed(t *testing.T) {
	// The n-th decision at a site must not depend on activity at
	// other sites: interleave queries differently, answers match.
	a := New(DefaultConfig(7))
	b := New(DefaultConfig(7))
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Preempt())
		a.EINTR() // extra traffic on another site
		a.EINTR()
	}
	for i := 0; i < 200; i++ {
		seqB = append(seqB, b.Preempt())
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d at sim.preempt depends on other sites", i)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.TimerJitter = 1000 // always
	cfg.MaxTimerJitter = time.Millisecond
	s := New(cfg)
	for i := 0; i < 500; i++ {
		d := s.Jitter(10 * time.Millisecond)
		if d < 9*time.Millisecond || d > 11*time.Millisecond {
			t.Fatalf("jitter out of range: %v", d)
		}
	}
	// Tiny durations never go non-positive.
	for i := 0; i < 500; i++ {
		if d := s.Jitter(time.Microsecond); d < time.Nanosecond {
			t.Fatalf("jitter produced non-positive duration: %v", d)
		}
	}
}
