package exp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fgpsim/internal/chaos"
)

// chaosDisk builds a chaos.FS over the real filesystem with the given
// hand-pinned faults on component "d".
func chaosDisk(faults ...chaos.Fault) *chaos.FS {
	for i := range faults {
		faults[i].Component = "d"
	}
	return chaos.NewFS(chaos.OS{}, &chaos.Schedule{Seed: 1, Faults: faults}, "d")
}

// TestJournalPoisonedByFsyncFailure pins the fsync gate and its repair
// inside Journal.Append. One failed Sync is healed by reopening the path
// and appending the entry again. A second failure in a row poisons the
// journal for good: a post-failure entry must never be reportable as
// durable, even though later fsyncs would "succeed" (the kernel may have
// dropped the dirty pages the failed one covered). An Append after Close
// fails without touching the file.
func TestJournalPoisonedByFsyncFailure(t *testing.T) {
	t.Run("one failure is healed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		before := JournalFsyncFailures()
		j, err := OpenJournal(chaosDisk(chaos.Fault{Kind: chaos.SyncFail, Class: "sync", N: 2}), path)
		if err != nil {
			t.Fatal(err)
		}
		k1, k2, k3 := journalKey("a"), journalKey("b"), journalKey("c")
		for i, k := range []Key{k1, k2, k3} {
			if err := j.AppendCell(k, runWithCycles(int64(10*(i+1))), 1, ""); err != nil {
				t.Fatalf("append %d: %v", i+1, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := JournalFsyncFailures(); got != before+1 {
			t.Fatalf("JournalFsyncFailures rose by %d, want 1", got-before)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The repair re-appends the entry whose fsync failed; the first copy
		// is still in the file, so the dedup sees it twice.
		if lines := strings.Count(string(data), "\n"); lines != 4 {
			t.Fatalf("journal has %d lines, want 4 (k2 appended twice):\n%s", lines, data)
		}
		m, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 3 || m[k1].Cycles != 10 || m[k2].Cycles != 20 || m[k3].Cycles != 30 {
			t.Fatalf("after the healed fsync: %+v", m)
		}
	})

	t.Run("two failures in a row poison", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		before := JournalFsyncFailures()
		disk := chaosDisk(
			chaos.Fault{Kind: chaos.SyncFail, Class: "sync", N: 2},
			chaos.Fault{Kind: chaos.SyncFail, Class: "sync", N: 3},
		)
		j, err := OpenJournal(disk, path)
		if err != nil {
			t.Fatal(err)
		}
		k1 := journalKey("a")
		if err := j.AppendCell(k1, runWithCycles(10), 1, ""); err != nil {
			t.Fatalf("append 1 (clean sync): %v", err)
		}
		var poisoned *PoisonedJournalError
		err = j.AppendCell(journalKey("b"), runWithCycles(20), 1, "")
		if !errors.As(err, &poisoned) {
			t.Fatalf("append 2 = %v; want *PoisonedJournalError", err)
		}
		if poisoned.Path != path {
			t.Fatalf("poison path = %q, want %q", poisoned.Path, path)
		}
		var inj *chaos.InjectedError
		if !errors.As(err, &inj) || inj.Kind != chaos.SyncFail {
			t.Fatalf("poison cause = %v; want the injected sync failure", err)
		}
		if got := JournalFsyncFailures(); got != before+2 {
			t.Fatalf("JournalFsyncFailures rose by %d, want 2", got-before)
		}

		// The faults have drained — a raw sync would now succeed — but the
		// journal must stay poisoned anyway.
		late := make([]Key, 3)
		for i := range late {
			late[i] = journalKey(fmt.Sprintf("late-%d", i))
			if err := j.AppendCell(late[i], runWithCycles(1), 1, ""); !errors.As(err, &poisoned) {
				t.Fatalf("append after poison = %v; want *PoisonedJournalError", err)
			}
		}
		if err := j.Close(); !errors.As(err, &poisoned) {
			t.Fatalf("Close on poisoned journal = %v; want *PoisonedJournalError", err)
		}
		if got := JournalFsyncFailures(); got != before+2 {
			t.Fatalf("poisoned appends re-counted fsync failures: %d", got-before)
		}
		m, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if m[k1] == nil || m[k1].Cycles != 10 {
			t.Fatalf("entry appended before the poison lost: %+v", m)
		}
		for _, k := range late {
			if m[k] != nil {
				t.Fatalf("append refused by the poisoned journal reached the file: %+v", m)
			}
		}
	})

	t.Run("concurrent appends across a repair", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		j, err := OpenJournal(chaosDisk(chaos.Fault{Kind: chaos.SyncFail, Class: "sync", N: 5}), path)
		if err != nil {
			t.Fatal(err)
		}
		const writers, each = 8, 10
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := j.AppendCell(journalKey(fmt.Sprintf("w%d-%d", w, i)), runWithCycles(int64(i)), 1, ""); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != writers*each {
			t.Fatalf("read back %d cells, want %d", len(m), writers*each)
		}
	})

	t.Run("append after close", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		j, err := OpenJournal(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCell(journalKey("a"), runWithCycles(10), 1, ""); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCell(journalKey("b"), runWithCycles(20), 1, ""); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("append after Close = %v; want os.ErrClosed", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("append after Close changed the file:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestJournalTornWriteDoesNotGlueNextAppend is the torn-tail guard: a
// failed write that lands a newline-less prefix must not swallow the NEXT
// successful append by gluing two JSON values onto one undecodable line.
func TestJournalTornWriteDoesNotGlueNextAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	// Arg=17 tears the second append mid-line (the entry lines here are
	// ~200 bytes, so 17 is a proper prefix with no newline).
	disk := chaosDisk(chaos.Fault{Kind: chaos.TornWrite, Class: "write", N: 2, Arg: 17})
	j, err := OpenJournal(disk, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := journalKey("a"), journalKey("b"), journalKey("c")
	if err := j.AppendCell(k1, runWithCycles(10), 1, ""); err != nil {
		t.Fatal(err)
	}
	var inj *chaos.InjectedError
	if err := j.AppendCell(k2, runWithCycles(20), 1, ""); !errors.As(err, &inj) || inj.Kind != chaos.TornWrite {
		t.Fatalf("append 2 = %v; want injected torn-write", err)
	}
	// The caller saw the append fail, so k2 is legitimately absent. What
	// must NOT happen is k3 — which the caller saw succeed — vanishing too.
	if err := j.AppendCell(k3, runWithCycles(30), 1, ""); err != nil {
		t.Fatalf("append 3: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if m[k1] == nil || m[k1].Cycles != 10 {
		t.Fatalf("k1 lost: %+v", m)
	}
	if m[k3] == nil || m[k3].Cycles != 30 {
		t.Fatalf("k3 (acknowledged durable after the torn write) lost: %+v", m)
	}
	if m[k2] != nil {
		t.Fatalf("k2 (failed append) resurrected: %+v", m)
	}
}

// TestJournalMultiWriterInterleavedTornTails is the satellite dedup test:
// several writers extend one O_APPEND journal, writers die mid-write(2)
// leaving newline-less fragments between the survivors' lines, and the
// stamped records must still merge to the deterministic (attempt,
// fingerprint) winners. It also pins the exact blast radius of a tear:
//
//   - a writer that OPENS over a torn tail isolates it (tailIsTorn), so
//     its appends all survive;
//   - a fragment that appears under an ALREADY-OPEN writer's feet glues
//     onto that writer's next line and loses it — one line, never more —
//     and the next reopen (which is what crash recovery does) is clean.
func TestJournalMultiWriterInterleavedTornTails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	k1, k2, k3 := journalKey("a"), journalKey("b"), journalKey("c")

	// tear simulates a writer killed inside write(2): a direct O_APPEND
	// write of a JSON prefix with no trailing newline.
	tear := func(frag string) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(frag)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	a, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendCell(k1, runWithCycles(10), 1, ""); err != nil {
		t.Fatal(err)
	}
	tear(`{"key":{"bench":"b","disc":`) // writer B dies mid-write

	// Writer C opens over B's fragment: tailIsTorn must isolate it so C's
	// first append survives.
	c, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendCell(k3, runWithCycles(30), 1, ""); err != nil {
		t.Fatal(err)
	}
	// Interleaved stamped duplicates for k2: C's attempt-1 record and A's
	// attempt-2 record (a steal re-ran the cell). File order is C-then-A
	// here, but the attempt ordinal, not file order, must decide.
	if err := c.AppendCell(k2, runWithCycles(20), 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendCell(k2, runWithCycles(22), 2, ""); err != nil {
		t.Fatal(err)
	}

	tear(`{"key":{"bench":"a","di`) // writer D dies mid-write
	// C, already open and unaware of D's fragment, appends k1@3. This line
	// glues onto the fragment and is lost — the documented one-line bound.
	if err := c.AppendCell(k1, runWithCycles(13), 3, ""); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c.Close()

	// Writer E reopens (crash recovery): the glued line ended with '\n',
	// so the tail is clean and E's append lands whole.
	e, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AppendCell(k1, runWithCycles(14), 4, ""); err != nil {
		t.Fatal(err)
	}
	e.Close()

	m, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("merged %d keys, want 3: %+v", len(m), m)
	}
	if m[k3] == nil || m[k3].Cycles != 30 {
		t.Fatalf("k3 (first append over a torn tail) = %+v, want 30 cycles", m[k3])
	}
	if m[k2] == nil || m[k2].Cycles != 22 {
		t.Fatalf("k2 winner = %+v, want the attempt-2 record (22 cycles)", m[k2])
	}
	if m[k1] == nil || m[k1].Cycles != 14 {
		t.Fatalf("k1 winner = %+v, want the attempt-4 record (14 cycles)", m[k1])
	}
}
