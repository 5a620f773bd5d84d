package exp

import (
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

// readJournal merges journals with no reject callback and keeps each
// winner's stats.
func readJournal(paths ...string) (map[Key]*stats.Run, error) {
	recs, err := MergeJournals(chaos.OS{}, nil, paths...)
	if err != nil {
		return nil, err
	}
	m := make(map[Key]*stats.Run, len(recs))
	for k, r := range recs {
		m[k] = r.Stats
	}
	return m, nil
}

func TestJournalAppendReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := journalKey("a"), journalKey("b")
	if err := j.appendResult(journalEntry{Key: k1, Stats: runWithCycles(10)}); err != nil {
		t.Fatal(err)
	}
	if err := j.appendResult(journalEntry{Key: k2, Stats: runWithCycles(20)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[k1].Cycles != 10 || m[k2].Cycles != 20 {
		t.Fatalf("read %d entries: %+v", len(m), m)
	}
}

// TestJournalDuplicateKeysOrderIndependent covers resume deduplication: a
// journal holding several attempt-0 lines for the same key (a single
// writer journals a key at most once per run, so these come from several
// runs) restores one of them by content — the largest digest — whatever
// order the lines landed in.
func TestJournalDuplicateKeysOrderIndependent(t *testing.T) {
	k := journalKey("dup")
	runs := []*stats.Run{runWithCycles(1), runWithCycles(2), runWithCycles(3)}
	want := runs[0]
	for _, r := range runs[1:] {
		if DigestStats(r) > DigestStats(want) {
			want = r
		}
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		path := filepath.Join(t.TempDir(), "cells.journal")
		j, err := OpenJournal(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := j.appendResult(journalEntry{Key: k, Stats: runs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 1 || m[k].Cycles != want.Cycles {
			t.Fatalf("order %v: want the single largest-digest entry (cycles=%d), got %+v", order, want.Cycles, m)
		}
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
	if err := j.appendResult(journalEntry{Key: k1, Stats: runWithCycles(7)}); err != nil {
		t.Fatal(err)
	}
	if err := j.appendResult(journalEntry{Key: k2, Stats: runWithCycles(9)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	once, err := readJournal(path)
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
	twice, err := readJournal(path)
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
	if err := j.appendResult(journalEntry{Key: k1, Stats: runWithCycles(5)}); err != nil {
		t.Fatal(err)
	}
	if err := j.appendResult(journalEntry{Key: k2, Stats: runWithCycles(6)}); err != nil {
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
	m, err := readJournal(path)
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
	if err := j.appendResult(journalEntry{Key: k1, Stats: runWithCycles(1)}); err != nil {
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
	if err := j2.appendResult(journalEntry{Key: k2, Stats: runWithCycles(2)}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("append reopen lost entries: %+v", m)
	}
}

// TestReplayJournalSkipsMalformed checks arbitrary garbage lines in the
// middle of a journal are rejected one by one without aborting the merge.
func TestReplayJournalSkipsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	k := journalKey("good")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.appendResult(journalEntry{Key: k, Stats: runWithCycles(4)}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content := append([]byte("{not json\n\n"), good...)
	content = append(content, []byte("{\"key\":{},\"stats\":null}\n")...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	rejected := 0
	recs, err := MergeJournals(chaos.OS{}, func(*IntegrityError) { rejected++ }, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[k].Stats == nil || recs[k].Stats.Cycles != 4 {
		t.Fatalf("read %+v, want only the well-formed entry", recs)
	}
	if rejected != 2 {
		t.Fatalf("rejected %d lines, want the 2 malformed ones", rejected)
	}
}

// TestJournalMultiWriterDedupDeterministic is the regression test for the
// fabric's requeue race: two workers both complete the same cell (one was
// presumed dead and the cell was requeued, then the "dead" worker's result
// arrived anyway), and their records land in the journal in whichever
// order the network delivered them. The dedup must resolve by (attempt
// ordinal, digest), not file order: the same winner regardless of
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
			if err := j.appendResult(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stamp := func(s *stats.Run, attempt int) journalEntry {
		return journalEntry{Key: k, Stats: s, Attempt: attempt}
	}

	// Both interleavings of the duplicate records must pick attempt 2.
	for name, order := range map[string][]journalEntry{
		"old-then-new": {stamp(first, 1), stamp(second, 2)},
		"new-then-old": {stamp(second, 2), stamp(first, 1)},
	} {
		m, err := readJournal(write(t, order))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 1 || m[k].Cycles != 200 {
			t.Fatalf("%s: want attempt-2 record (cycles=200) to win, got %+v", name, m[k])
		}
	}

	// Equal attempts (two workers raced the same assignment epoch — a
	// duplicate steal) resolve by content digest, again order-independently.
	a := runWithCycles(10)
	b := runWithCycles(20)
	da, db := DigestStats(a), DigestStats(b)
	if da == db {
		t.Fatal("test stats must digest differently")
	}
	wantCycles := int64(10)
	if db > da {
		wantCycles = 20
	}
	for name, order := range map[string][]journalEntry{
		"a-then-b": {stamp(a, 3), stamp(b, 3)},
		"b-then-a": {stamp(b, 3), stamp(a, 3)},
	} {
		m, err := readJournal(write(t, order))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 1 || m[k].Cycles != wantCycles {
			t.Fatalf("%s: want digest-ordered winner (cycles=%d), got %+v", name, wantCycles, m[k])
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
		j.AppendCell(kA, runWithCycles(1), 1, "")
		j.AppendCell(kShared, runWithCycles(50), 1, "")
	})
	pb := writeCells("worker-b.cells", func(j *Journal) {
		j.AppendCell(kB, runWithCycles(2), 1, "")
		j.AppendCell(kShared, runWithCycles(60), 2, "") // the requeued re-run
	})

	for name, paths := range map[string][]string{
		"a-first": {pa, pb},
		"b-first": {pb, pa},
	} {
		m, err := readJournal(paths...)
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
// plain resume path (MergeJournals) like any other record, and merges back
// with its attempt and producing worker.
func TestAppendCellReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k := journalKey("stamped")
	if err := j.AppendCell(k, runWithCycles(7), 4, "w7"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[k].Cycles != 7 {
		t.Fatalf("stamped record not restored: %+v", m)
	}
	recs, err := MergeJournals(chaos.OS{}, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if r := recs[k]; r.Attempt != 4 || r.Worker != "w7" {
		t.Fatalf("merged record attempt %d worker %q, want 4 and w7", r.Attempt, r.Worker)
	}
}

// TestReadJournalMissingFile treats a nonexistent journal as empty.
func TestReadJournalMissingFile(t *testing.T) {
	m, err := readJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("missing journal read %+v, want empty", m)
	}
}

// parentRecord is a cell record as the previous journal format wrote it,
// with the "fp" fingerprint stamp new records omit (AppendCell of 7 cycles
// at attempt 3).
const parentRecord = `{"key":{"Bench":"parent","Disc":2,"Issue":1,"Mem":65,"Branch":0,"Window":0,"Pred":0},"stats":{"Cycles":7,"RetiredNodes":0,"ExecutedNodes":0,"DiscardedNodes":0,"RetiredBlocks":0,"Mispredicts":0,"Faults":0,"Branches":0,"BranchesCorrect":0,"CacheHits":0,"CacheMisses":0,"WindowBlockSum":0,"WindowNodeSum":0,"BlockSizes":{},"InjectedFaults":0,"RepairedFaults":0,"EFDegradations":0,"Work":0},"fp":"a149433fccb0123d","attempt":3,"digest":"7c03e3e6:423"}`

// TestJournalParentRecordMerges: a record in the previous format still
// verifies, scrubs clean and merges against new records under the same
// order — here a new attempt-2 record loses to it, a new attempt-4 one wins.
func TestJournalParentRecordMerges(t *testing.T) {
	k := journalKey("parent")
	for _, tc := range []struct {
		attempt    int
		wantCycles int64
	}{{2, 7}, {4, 9}} {
		path := filepath.Join(t.TempDir(), "cells.journal")
		if err := os.WriteFile(path, []byte(parentRecord+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if total, bad, err := ScrubJournal(chaos.OS{}, path); err != nil || len(bad) != 0 || total != 1 {
			t.Fatalf("parent record scrub: total %d, bad %v, err %v", total, bad, err)
		}
		j, err := OpenJournal(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCell(k, runWithCycles(9), tc.attempt, ""); err != nil {
			t.Fatal(err)
		}
		j.Close()
		var rejected []*IntegrityError
		recs, err := MergeJournals(chaos.OS{}, func(ie *IntegrityError) { rejected = append(rejected, ie) }, path)
		if err != nil || len(rejected) != 0 {
			t.Fatalf("merge: err %v, rejected %v", err, rejected)
		}
		if r := recs[k]; len(recs) != 1 || r.Stats.Cycles != tc.wantCycles || r.Digest != DigestStats(r.Stats) {
			t.Fatalf("new record at attempt %d: merged %+v, want cycles %d", tc.attempt, r, tc.wantCycles)
		}
	}
}
