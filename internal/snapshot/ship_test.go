package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fgpsim/internal/chaos"
)

// TestShipRoundtrip: load the latest on-disk snapshot as wire bytes, store
// them on a second machine's path, and check the stored file decodes to
// the same snapshot.
func TestShipRoundtrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "cell.snap")
	dst := filepath.Join(dir, "shipped.snap")
	s := sampleSnapshot()
	if err := WriteFile(chaos.OS{}, src, s); err != nil {
		t.Fatal(err)
	}
	data, fp, err := LoadShippable(chaos.OS{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if fp != s.Fingerprint {
		t.Fatalf("shipped fingerprint %x, want %x", fp, s.Fingerprint)
	}
	storedFp, err := Store(chaos.OS{}, dst, data)
	if err != nil {
		t.Fatal(err)
	}
	if storedFp != s.Fingerprint {
		t.Fatalf("stored fingerprint %x, want %x", storedFp, s.Fingerprint)
	}
	got, err := ReadLatest(chaos.OS{}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(got), Encode(s)) {
		t.Fatal("shipped snapshot decodes differently from the original")
	}
}

// TestStoreRejectsCorruptWireBytes: bytes damaged in transit must never
// reach the receiver's snapshot directory.
func TestStoreRejectsCorruptWireBytes(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "shipped.snap")
	data := Encode(sampleSnapshot())

	truncated := data[:len(data)/2]
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40

	for name, bad := range map[string][]byte{
		"truncated": truncated,
		"bit-flip":  flipped,
		"garbage":   []byte("not a snapshot at all"),
		"empty":     nil,
	} {
		if _, err := Store(chaos.OS{}, dst, bad); err == nil {
			t.Errorf("%s wire bytes stored without error", name)
		}
		if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s wire bytes left a file behind", name)
		}
	}
}

// TestLoadShippableFallsBackToPrev: when the primary file is torn, the
// rotated predecessor ships instead — a worker whose latest checkpoint
// write was interrupted still ships its previous good state.
func TestLoadShippableFallsBackToPrev(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")
	s := sampleSnapshot()
	if err := WriteFile(chaos.OS{}, path, s); err != nil {
		t.Fatal(err)
	}
	s2 := sampleSnapshot()
	s2.Engine.Cycle = 999999
	if err := WriteFile(chaos.OS{}, path, s2); err != nil { // rotates s to .prev
		t.Fatal(err)
	}
	// Tear the primary mid-file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	shipped, _, err := LoadShippable(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(shipped)
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Cycle != s.Engine.Cycle {
		t.Fatalf("shipped cycle %d, want the rotated predecessor's %d", got.Engine.Cycle, s.Engine.Cycle)
	}
}

// TestExists covers the cheap pre-check both before and after rotation.
func TestExists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")
	if Exists(chaos.OS{}, path) {
		t.Fatal("Exists on nothing")
	}
	if err := WriteFile(chaos.OS{}, path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !Exists(chaos.OS{}, path) {
		t.Fatal("Exists misses the primary")
	}
	// Leave only the rotated file behind.
	if err := WriteFile(chaos.OS{}, path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !Exists(chaos.OS{}, path) {
		t.Fatal("Exists misses the rotated predecessor")
	}
}
