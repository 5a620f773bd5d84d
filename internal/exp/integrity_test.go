package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fgpsim/internal/chaos"
)

func TestDigestStatsDeterministic(t *testing.T) {
	a, b := DigestStats(runWithCycles(42)), DigestStats(runWithCycles(42))
	if a == "" || a != b {
		t.Fatalf("digest not deterministic: %q vs %q", a, b)
	}
	if c := DigestStats(runWithCycles(43)); c == a {
		t.Fatalf("distinct stats share digest %q", a)
	}
	if !strings.Contains(a, ":") {
		t.Fatalf("digest %q missing crc:length form", a)
	}
}

// TestJournalSingleByteCorruptionRejected is the tentpole's at-rest
// integrity check taken to exhaustion: with a digested three-record
// journal, corrupting any single byte of the middle record must reject
// exactly that record with a typed *IntegrityError while both neighbors
// merge intact. No byte of a record may be outside the digest's reach.
func TestJournalSingleByteCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := journalKey("n1"), journalKey("n2"), journalKey("n3")
	for i, k := range []Key{k1, k2, k3} {
		if err := j.AppendCell(k, runWithCycles(int64(11*(i+1))), 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(orig, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	start := len(lines[0]) + 1 // byte offset of the middle record's line

	for off := 0; off < len(lines[1]); off++ {
		mut := append([]byte(nil), orig...)
		mut[start+off] ^= 0xff // never '\n', so line framing survives
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var errs []*IntegrityError
		m, err := MergeJournals(chaos.OS{}, func(ie *IntegrityError) { errs = append(errs, ie) }, path)
		if err != nil {
			t.Fatalf("offset %d: merge failed outright: %v", off, err)
		}
		if len(errs) == 0 {
			t.Fatalf("offset %d: single-byte corruption went undetected", off)
		}
		if _, ok := m[k2]; ok {
			t.Fatalf("offset %d: corrupted record survived the merge", off)
		}
		if len(m) != 2 || m[k1].Stats.Cycles != 11 || m[k3].Stats.Cycles != 33 {
			t.Fatalf("offset %d: neighbor records damaged: %d survivors", off, len(m))
		}
	}
}

// TestScrubJournalDetectsCorruptRecord covers the scrubber's journal half:
// detection with counts, never mutation.
func TestScrubJournalDetectsCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []Key{journalKey("s1"), journalKey("s2")} {
		if err := j.AppendCell(k, runWithCycles(int64(i+1)), 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	total, bad, err := ScrubJournal(chaos.OS{}, path)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean journal: total %d, bad %v, err %v", total, bad, err)
	}
	if total != 2 {
		t.Fatalf("clean journal: total = %d, want 2", total)
	}

	orig, _ := os.ReadFile(path)
	mut := append([]byte(nil), orig...)
	mut[bytes.IndexByte(mut, '{')+5] ^= 0xff // inside the first record
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, bad, err = ScrubJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0].Hop != "scrub" {
		t.Fatalf("bad = %v, want exactly one scrub-hop error", bad)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, mut) {
		t.Fatal("scrub mutated the journal file (it must only detect)")
	}
}
