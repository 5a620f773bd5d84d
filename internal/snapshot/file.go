package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/faultinject"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
)

// This file is the durability layer: snapshots reach disk atomically (temp
// file + fsync + rename) and are read back through a two-deep fallback
// ladder (path, then path.prev), so a crash at any instant leaves at least
// one decodable snapshot behind. Every function here takes the disk it
// works on first: chaos.OS{} is the real filesystem, and the chaos harness
// passes a fault-injecting chaos.FS.

// prevSuffix names the previous good snapshot kept alongside the current
// one; WriteFile rotates into it before replacing.
const prevSuffix = ".prev"

// WriteFile atomically persists a snapshot at path. The bytes are written
// to a temp file in the same directory and fsynced before any rename, the
// existing snapshot (if any) is rotated to path.prev, and the directory is
// synced last — so a crash anywhere in the sequence leaves either the old
// snapshot, the new one, or both, never a half-written file at path.
func WriteFile(disk chaos.Disk, path string, s *Snapshot) error {
	data := Encode(s)
	dir := filepath.Dir(path)
	tmp, err := disk.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		disk.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		disk.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := disk.Stat(path); err == nil {
		if err := disk.Rename(path, path+prevSuffix); err != nil {
			disk.Remove(tmpName)
			return fmt.Errorf("snapshot: rotate: %w", err)
		}
	}
	if err := disk.Rename(tmpName, path); err != nil {
		disk.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	disk.SyncDir(dir) // best-effort: some filesystems refuse directory fsync
	return nil
}

// ReadLatest loads the newest decodable snapshot for path, trying path
// first and falling back to path.prev when path is missing, torn, or
// corrupt. os.ErrNotExist is returned (wrapped) only when neither file
// exists; a decodable-nowhere state reports the primary's corruption.
func ReadLatest(disk chaos.Disk, path string) (*Snapshot, error) {
	s, errMain := readOne(disk, path)
	if errMain == nil {
		return s, nil
	}
	s, errPrev := readOne(disk, path+prevSuffix)
	if errPrev == nil {
		return s, nil
	}
	if errors.Is(errMain, os.ErrNotExist) && errors.Is(errPrev, os.ErrNotExist) {
		return nil, fmt.Errorf("snapshot: none at %s: %w", path, os.ErrNotExist)
	}
	if errors.Is(errMain, os.ErrNotExist) {
		return nil, errPrev
	}
	return nil, errMain
}

func readOne(disk chaos.Disk, path string) (*Snapshot, error) {
	data, err := disk.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}

// Remove deletes a snapshot and its rotated predecessor; missing files are
// fine (a finished run cleans up whatever is there).
func Remove(disk chaos.Disk, path string) {
	disk.Remove(path)
	disk.Remove(path + prevSuffix)
}

// RunFingerprint pins a snapshot to everything that determines a run's
// trajectory: the image (program + timing configuration, via
// loader.Image.Fingerprint), both input streams, and the branch hints. Two
// runs with equal fingerprints replay identically, so a snapshot from one
// resumes the other.
func RunFingerprint(img *loader.Image, in0, in1 []byte, hints map[ir.BlockID]bool) uint64 {
	h := fnv64(fnvOffset)
	h.u64(img.Fingerprint())
	h.blob(in0)
	h.blob(in1)
	h.u64(uint64(len(hints)))
	keys := make([]int, 0, len(hints))
	for k := range hints {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		h.u64(uint64(int64(k)))
		if hints[ir.BlockID(k)] {
			h.byte(1)
		} else {
			h.byte(0)
		}
	}
	return uint64(h)
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

type fnv64 uint64

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * fnvPrime }

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fnv64) blob(b []byte) {
	h.u64(uint64(len(b)))
	for _, c := range b {
		h.byte(c)
	}
}

// Saver returns a core.Limits.Checkpoint hook that persists every
// checkpoint to path under the given fingerprint, capturing the injector's
// stream position alongside when inj is non-nil.
func Saver(disk chaos.Disk, path string, fingerprint uint64, inj *faultinject.Injector) func(*core.EngineState) error {
	return func(st *core.EngineState) error {
		s := &Snapshot{Fingerprint: fingerprint, Engine: st}
		if inj != nil {
			s.Injector = inj.State()
		}
		return WriteFile(disk, path, s)
	}
}
