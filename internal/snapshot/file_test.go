package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fgpsim/internal/chaos"
)

// writePair lays down a current snapshot at path and a distinct previous
// one at path.prev, returning both fingerprints.
func writePair(t *testing.T, path string) (cur, prev uint64) {
	t.Helper()
	sPrev := sampleSnapshot()
	sPrev.Fingerprint = 0x1111111111111111
	if err := WriteFile(chaos.OS{}, path, sPrev); err != nil {
		t.Fatal(err)
	}
	sCur := sampleSnapshot()
	sCur.Fingerprint = 0x2222222222222222
	if err := WriteFile(chaos.OS{}, path, sCur); err != nil {
		t.Fatal(err)
	}
	// WriteFile rotated the first snapshot to path.prev.
	return sCur.Fingerprint, sPrev.Fingerprint
}

// TestReadLatestTruncationLadder truncates the CURRENT snapshot at every
// byte boundary and asserts the fallback ladder never fails: a complete
// current file reads as current, and every proper prefix — from zero bytes
// through len-1 — falls back to the previous snapshot instead of erroring
// or, worse, decoding a damaged state.
func TestReadLatestTruncationLadder(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.snap")
	curFp, prevFp := writePair(t, golden)
	full, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	prevBytes, err := os.ReadFile(golden + ".prev")
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cell-%d.snap", cut))
		if err := os.WriteFile(path+".prev", prevBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := ReadLatest(chaos.OS{}, path)
		if err != nil {
			t.Fatalf("cut=%d/%d: ReadLatest failed: %v", cut, len(full), err)
		}
		want := prevFp
		if cut == len(full) {
			want = curFp
		}
		if s.Fingerprint != want {
			t.Fatalf("cut=%d/%d: fingerprint %016x, want %016x", cut, len(full), s.Fingerprint, want)
		}
		os.Remove(path)
		os.Remove(path + ".prev")
	}
}

// TestReadLatestTruncationBothFiles truncates BOTH rungs of the ladder:
// with no decodable snapshot anywhere, ReadLatest must return the
// primary's corruption error, and a typed *CorruptError at that.
func TestReadLatestTruncationBothFiles(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.snap")
	writePair(t, golden)
	full, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cell.snap")
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".prev", full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := ReadLatest(chaos.OS{}, path)
		var corrupt *CorruptError
		if !errors.As(rerr, &corrupt) {
			t.Fatalf("cut=%d: ReadLatest = %v; want *CorruptError", cut, rerr)
		}
	}
}

// TestReadLatestBitrotFallsBack reads through a chaos.FS that flips one
// bit of the current snapshot on the read path: the CRC frames must
// reject it and the ladder must fall back to the previous snapshot. Every
// bit position of the file is a potential target; sweep a seeded sample
// across the whole span.
func TestReadLatestBitrotFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")
	curFp, prevFp := writePair(t, path)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	bits := uint64(info.Size() * 8)

	for i := uint64(0); i < 64; i++ {
		bit := (bits * i) / 64 // spread targets across the file
		disk := chaos.NewFS(chaos.OS{}, &chaos.Schedule{Seed: 1, Faults: []chaos.Fault{
			{Component: "d", Kind: chaos.BitrotRead, Class: "read", N: 1, Arg: bit},
		}}, "d")
		s, err := ReadLatest(disk, path)
		if err != nil {
			t.Fatalf("bit=%d: ReadLatest failed outright: %v", bit, err)
		}
		if s.Fingerprint != prevFp {
			t.Fatalf("bit=%d: fingerprint %016x, want fallback to prev %016x", bit, s.Fingerprint, prevFp)
		}
	}

	// Control: the same disk with its fault drained reads the current file.
	s, err := ReadLatest(chaos.OS{}, path)
	if err != nil || s.Fingerprint != curFp {
		t.Fatalf("clean read = %v, %v", s, err)
	}
}
