package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"sunosmt/mt"
)

// update re-records the per-policy journals before replaying the
// corpus. Run it at the commit a refactor must stay equivalent TO,
// never at the refactor itself — a journal recorded by the code it is
// meant to check proves nothing.
var update = flag.Bool("update", false, "re-record the per-policy journals in mt/testdata/journals")

const corpusDir = "../../mt/testdata/journals"

// TestJournalCorpusReplays is the cross-version safety proof for
// scheduler and lock refactors: the journals under
// mt/testdata/journals must keep replaying — through the very code
// `mttrace -replay` runs — to the identical event stream with the
// decision-divergence detector silent. A refactor that reorders a
// dispatch, drops or invents an event, or draws a chaos decision at a
// different point fails here. Two generations:
//
//   - seed1-6.journal: the default policy, recorded with `mttrace
//     -record` at the commit before the user-level switch was
//     collapsed into Runtime.switchFrom.
//   - <policy>-seed1-3.journal: ticket, queue and parkinglot, recorded
//     with this test's -update flag at the commit before the four
//     lock-policy implementations were merged into one discipline.
//
// Re-record (and say why) only when a change means to alter the
// schedule.
func TestJournalCorpusReplays(t *testing.T) {
	policies := []mt.LockPolicy{mt.PolicyTicket, mt.PolicyQueue, mt.PolicyParkingLot}
	if *update {
		for _, pol := range policies {
			for seed := 1; seed <= 3; seed++ {
				// The shapes of seed1-3.journal: ~400 acquisitions
				// over 3, 4 and 5 threads.
				threads := 2 + seed
				path := filepath.Join(corpusDir, fmt.Sprintf("%v-seed%d.journal", pol, seed))
				recordRun(path, uint64(seed), threads, 400/threads, 4096, pol)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 + 3*len(policies); len(paths) != want {
		t.Fatalf("journal corpus has %d files, want %d", len(paths), want)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			if _, n, err := replayJournal(path); err != nil {
				t.Fatal(err)
			} else if n == 0 {
				t.Fatal("replay matched an empty event stream")
			}
		})
	}
}
