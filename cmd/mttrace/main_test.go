package main

import (
	"path/filepath"
	"testing"
)

// TestJournalCorpusReplays is the cross-version safety proof for
// scheduler refactors: the journals under mt/testdata/journals were
// recorded with `mttrace -record` (seeds 1-6) at the commit before the
// user-level switch was collapsed into Runtime.switchFrom, and must
// keep replaying — through the very code `mttrace -replay` runs — to
// the identical event stream with the decision-divergence detector
// silent. A refactor that reorders a dispatch, drops or invents an
// event, or draws a chaos decision at a different point fails here.
// Re-record (and say why) only when a change means to alter the
// schedule.
func TestJournalCorpusReplays(t *testing.T) {
	paths, err := filepath.Glob("../../mt/testdata/journals/*.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("journal corpus has %d files, want at least 6", len(paths))
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
