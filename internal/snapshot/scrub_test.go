package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fgpsim/internal/chaos"
)

// corruptFile flips one byte in the middle of path's payload region (past
// the 8-byte frame header so length framing survives and the CRC catches it).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubFileHealthy: a decodable primary scrubs to ScrubOK and a corrupt
// .prev lingering behind it is removed so the read ladder can never fall
// back onto bad bytes.
func TestScrubFileHealthy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.snap")
	cur, _ := writePair(t, path)
	corruptFile(t, path+".prev")

	got, err := ScrubFile(chaos.OS{}, path)
	if got != ScrubOK || err != nil {
		t.Fatalf("ScrubFile = %v, %v; want ScrubOK, nil", got, err)
	}
	if _, err := os.Stat(path + ".prev"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt .prev still present after scrub: %v", err)
	}
	s, err := ReadLatest(chaos.OS{}, path)
	if err != nil || s.Fingerprint != cur {
		t.Fatalf("primary damaged by scrub: %v (fp %x, want %x)", err, s.Fingerprint, cur)
	}
}

// TestScrubFileRepairsFromPrev: a corrupt primary with a decodable .prev is
// atomically replaced by the .prev's bytes — a resume hint one checkpoint
// older, but decodable — and the verdict is ScrubRepaired.
func TestScrubFileRepairsFromPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.snap")
	_, prevFp := writePair(t, path)
	corruptFile(t, path)

	got, err := ScrubFile(chaos.OS{}, path)
	if got != ScrubRepaired || err != nil {
		t.Fatalf("ScrubFile = %v, %v; want ScrubRepaired, nil", got, err)
	}
	s, err := ReadLatest(chaos.OS{}, path)
	if err != nil {
		t.Fatalf("repaired primary does not decode: %v", err)
	}
	if s.Fingerprint != prevFp {
		t.Errorf("repaired fingerprint %x, want the .prev's %x", s.Fingerprint, prevFp)
	}
}

// TestScrubFileQuarantines: with both copies corrupt there is nothing to
// repair from; the scrubber renames both out of the read ladder and returns
// the typed *QuarantinedFileError so callers can count it.
func TestScrubFileQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.snap")
	writePair(t, path)
	corruptFile(t, path)
	corruptFile(t, path+".prev")

	got, err := ScrubFile(chaos.OS{}, path)
	if got != ScrubQuarantined {
		t.Fatalf("ScrubFile = %v, want ScrubQuarantined", got)
	}
	var qerr *QuarantinedFileError
	if !errors.As(err, &qerr) || qerr.Path != path {
		t.Fatalf("error %v is not a *QuarantinedFileError for %s", err, path)
	}
	for _, p := range []string{path, path + ".prev"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still in the read ladder after quarantine", p)
		}
		if _, err := os.Stat(p + ".quarantined"); err != nil {
			t.Errorf("%s.quarantined missing: %v", p, err)
		}
	}
	if _, err := ReadLatest(chaos.OS{}, path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("ReadLatest after quarantine = %v, want ErrNotExist (fresh start)", err)
	}
}

// TestScrubFileMissing: no primary is not an error — the cell simply has
// no checkpoint yet.
func TestScrubFileMissing(t *testing.T) {
	got, err := ScrubFile(chaos.OS{}, filepath.Join(t.TempDir(), "absent.snap"))
	if got != ScrubMissing || err != nil {
		t.Fatalf("ScrubFile = %v, %v; want ScrubMissing, nil", got, err)
	}
}
