package trace

import (
	"sync"
	"testing"
	"time"
)

func TestRingsRecordAndSnapshot(t *testing.T) {
	var tick time.Duration
	r := NewRings(2, 64, func() time.Duration { tick += time.Microsecond; return tick })
	r.Record(0, EvDispatch, 1, 2, 0, 42)
	r.Record(1, EvDispatch, 1, 3, 0, 7)
	r.Record(-1, EvWakeup, 1, 2, 0, 0)
	r.Record(0, EvThreadRun, 1, 2, 9, 0)

	recs, dropped := r.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d; merge not ordered: %v", i, rec.Seq, recs)
		}
	}
	if recs[0].Kind != EvDispatch || recs[0].CPU != 0 || recs[0].LWP != 2 || recs[0].Arg != 42 {
		t.Fatalf("first record = %+v", recs[0])
	}
	if recs[2].CPU != -1 {
		t.Fatalf("unattributed record has CPU %d, want -1", recs[2].CPU)
	}
	if recs[3].TID != 9 {
		t.Fatalf("thread record TID = %d, want 9", recs[3].TID)
	}
	if got := r.Kinds(EvDispatch); len(got) != 2 {
		t.Fatalf("Kinds(EvDispatch) returned %d records, want 2", len(got))
	}
}

func TestRingsDropCounting(t *testing.T) {
	r := NewRings(1, 64, nil)
	const writes = 200
	for i := 0; i < writes; i++ {
		r.Record(0, EvDispatch, 1, 1, 0, uint64(i))
	}
	recs, dropped := r.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("retained %d records, want capacity 64", len(recs))
	}
	if dropped != writes-64 {
		t.Fatalf("dropped = %d, want %d", dropped, writes-64)
	}
	// The retained set is the most recent writes: the smallest Arg
	// present must be writes-64.
	min := uint64(writes)
	for _, rec := range recs {
		if rec.Arg < min {
			min = rec.Arg
		}
	}
	if min != writes-64 {
		t.Fatalf("oldest retained Arg = %d, want %d", min, writes-64)
	}
}

func TestRingsNilSafe(t *testing.T) {
	var r *Rings
	r.Record(0, EvDispatch, 1, 1, 0, 0)
	if recs, dropped := r.Snapshot(); recs != nil || dropped != 0 {
		t.Fatalf("nil rings snapshot = %v, %d", recs, dropped)
	}
	if r.Dropped() != 0 || r.NCPU() != 0 {
		t.Fatal("nil rings accessors not zero")
	}
}

// TestRingsConcurrent hammers the rings from several writers while a
// reader snapshots continuously; under -race this checks the ring
// locking, and the assertions check no record is ever invented: a
// snapshot must never show a claimed-but-unwritten or half-written slot.
func TestRingsConcurrent(t *testing.T) {
	r := NewRings(4, 256, nil)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(w, EvDispatch, w+1, i, 0, uint64(i))
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			recs, _ := r.Snapshot()
			for _, rec := range recs {
				if rec.Kind != EvDispatch || rec.PID < 1 || rec.PID > writers {
					t.Errorf("corrupt record observed: %+v", rec)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	recs, dropped := r.Snapshot()
	if got := uint64(len(recs)) + dropped; got != writers*perWriter {
		t.Fatalf("retained+dropped = %d, want %d: a record was lost or invented", got, writers*perWriter)
	}
}
