package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fgpsim/internal/chaos"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

func journalKey(bench string) Key {
	return KeyOf(bench, machine.Config{Disc: machine.Dyn4, Issue: machine.IssueModels[0], Mem: machine.MemConfigs[0]})
}

func runWithCycles(c int64) *stats.Run {
	s := stats.New()
	s.Cycles = c
	return s
}

func TestJournalAppendReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := journalKey("a"), journalKey("b")
	if err := j.Append(journalEntry{Key: k1, Stats: runWithCycles(10)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry{Key: k2, Stats: runWithCycles(20)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[k1].Cycles != 10 || m[k2].Cycles != 20 {
		t.Fatalf("read %d entries: %+v", len(m), m)
	}
}

// TestJournalDuplicateKeysLastWriteWins covers resume deduplication: a
// journal holding several lines for the same key (a cell re-run after a
// partial resume) must restore the latest line.
func TestJournalDuplicateKeysLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k := journalKey("dup")
	for _, cycles := range []int64{1, 2, 3} {
		if err := j.Append(journalEntry{Key: k, Stats: runWithCycles(cycles)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[k].Cycles != 3 {
		t.Fatalf("want single entry with cycles=3 (last write), got %+v", m)
	}
}

// TestJournalReplayedTwice doubles the journal file onto itself — the shape
// a resumed-then-resumed sweep or a concatenated backup produces — and
// checks the read is identical to reading it once.
func TestJournalReplayedTwice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := journalKey("x"), journalKey("y")
	if err := j.Append(journalEntry{Key: k1, Stats: runWithCycles(7)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry{Key: k2, Stats: runWithCycles(9)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	once, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, data...), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	twice, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(twice) != len(once) {
		t.Fatalf("replayed journal has %d keys, want %d", len(twice), len(once))
	}
	for k, s := range once {
		if twice[k] == nil || twice[k].Cycles != s.Cycles {
			t.Fatalf("key %v: replayed %+v, want %+v", k, twice[k], s)
		}
	}
}

// TestJournalTornTailTolerated cuts the final line mid-JSON (what a crash
// during an append leaves behind) and checks only that line is lost.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := journalKey("keep"), journalKey("torn")
	if err := j.Append(journalEntry{Key: k1, Stats: runWithCycles(5)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry{Key: k2, Stats: runWithCycles(6)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[k1] == nil || m[k1].Cycles != 5 {
		t.Fatalf("torn journal read %+v, want only the intact first entry", m)
	}
}

// TestJournalOpenIsAppend re-opens an existing journal and checks the new
// writer extends rather than truncates it.
func TestJournalOpenIsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1 := journalKey("first")
	if err := j.Append(journalEntry{Key: k1, Stats: runWithCycles(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k2 := journalKey("second")
	if err := j2.Append(journalEntry{Key: k2, Stats: runWithCycles(2)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("append reopen lost entries: %+v", m)
	}
}

// TestReplayJournalSkipsMalformed checks arbitrary garbage lines in the
// middle of a journal are skipped without aborting the replay.
func TestReplayJournalSkipsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	k := journalKey("good")
	good, _ := json.Marshal(journalEntry{Key: k, Stats: runWithCycles(4)})
	content := append([]byte("{not json\n\n"), good...)
	content = append(content, '\n')
	content = append(content, []byte("{\"key\":{},\"stats\":null}\n")...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[k] == nil || m[k].Cycles != 4 {
		t.Fatalf("read %+v, want only the well-formed entry", m)
	}
}

// TestJournalMultiWriterDedupDeterministic is the regression test for the
// fabric's requeue race: two workers both complete the same cell (one was
// presumed dead and the cell was requeued, then the "dead" worker's result
// arrived anyway), and their records land in the journal in whichever
// order the network delivered them. The dedup must resolve by (attempt
// ordinal, fingerprint), not file order: the same winner regardless of
// interleaving.
func TestJournalMultiWriterDedupDeterministic(t *testing.T) {
	k := journalKey("race")
	first := runWithCycles(100)  // attempt 1: the original assignment
	second := runWithCycles(200) // attempt 2: the requeued assignment

	write := func(t *testing.T, entries []journalEntry) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cells.journal")
		j, err := OpenJournal(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stamp := func(s *stats.Run, attempt int) journalEntry {
		return journalEntry{Key: k, Stats: s, Fp: fmt.Sprintf("%016x", StatsFingerprint(s)), Attempt: attempt}
	}

	// Both interleavings of the duplicate records must pick attempt 2.
	for name, order := range map[string][]journalEntry{
		"old-then-new": {stamp(first, 1), stamp(second, 2)},
		"new-then-old": {stamp(second, 2), stamp(first, 1)},
	} {
		m, err := ReadJournal(chaos.OS{}, write(t, order))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 1 || m[k].Cycles != 200 {
			t.Fatalf("%s: want attempt-2 record (cycles=200) to win, got %+v", name, m[k])
		}
	}

	// Equal attempts (two workers raced the same assignment epoch — a
	// duplicate steal) resolve by fingerprint, again order-independently.
	a := runWithCycles(10)
	b := runWithCycles(20)
	fa, fb := StatsFingerprint(a), StatsFingerprint(b)
	if fa == fb {
		t.Fatal("test stats must fingerprint differently")
	}
	wantCycles := int64(10)
	if fb > fa {
		wantCycles = 20
	}
	for name, order := range map[string][]journalEntry{
		"a-then-b": {stamp(a, 3), stamp(b, 3)},
		"b-then-a": {stamp(b, 3), stamp(a, 3)},
	} {
		m, err := ReadJournal(chaos.OS{}, write(t, order))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 1 || m[k].Cycles != wantCycles {
			t.Fatalf("%s: want fingerprint-ordered winner (cycles=%d), got %+v", name, wantCycles, m[k])
		}
	}
}

// TestMergeJournalsAcrossFiles merges two worker journals holding disjoint
// and overlapping cells and checks the overlap resolves by attempt, not by
// which path is listed first.
func TestMergeJournalsAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	kShared, kA, kB := journalKey("shared"), journalKey("only-a"), journalKey("only-b")

	writeCells := func(name string, appends func(j *Journal)) string {
		path := filepath.Join(dir, name)
		j, err := OpenJournal(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		appends(j)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pa := writeCells("worker-a.cells", func(j *Journal) {
		j.AppendCell(kA, runWithCycles(1), 1)
		j.AppendCell(kShared, runWithCycles(50), 1)
	})
	pb := writeCells("worker-b.cells", func(j *Journal) {
		j.AppendCell(kB, runWithCycles(2), 1)
		j.AppendCell(kShared, runWithCycles(60), 2) // the requeued re-run
	})

	for name, paths := range map[string][]string{
		"a-first": {pa, pb},
		"b-first": {pb, pa},
	} {
		m, err := MergeJournals(chaos.OS{}, paths...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 3 {
			t.Fatalf("%s: merged %d cells, want 3", name, len(m))
		}
		if m[kA].Cycles != 1 || m[kB].Cycles != 2 {
			t.Fatalf("%s: disjoint cells mangled: %+v", name, m)
		}
		if m[kShared].Cycles != 60 {
			t.Fatalf("%s: shared cell want attempt-2 winner (60), got %d", name, m[kShared].Cycles)
		}
	}
}

// TestAppendCellReadRoundtrip checks the stamped append is readable by the
// plain resume path (ReadJournal) like any other record.
func TestAppendCellReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k := journalKey("stamped")
	if err := j.AppendCell(k, runWithCycles(7), 4); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[k].Cycles != 7 {
		t.Fatalf("stamped record not restored: %+v", m)
	}
}

// TestReadJournalMissingFile treats a nonexistent journal as empty.
func TestReadJournalMissingFile(t *testing.T) {
	m, err := ReadJournal(chaos.OS{}, filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("missing journal read %+v, want empty", m)
	}
}
