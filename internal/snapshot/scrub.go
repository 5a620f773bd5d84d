package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fgpsim/internal/chaos"
)

// This file is the scrubber's snapshot half (DESIGN.md §17): verify a
// snapshot file's CRC frames at rest, repair a corrupt primary from its
// rotated .prev where possible, and quarantine (rename, typed error) where
// not. Snapshots are resume hints — losing one costs checkpoint progress,
// never correctness — so the scrubber is free to be aggressive about
// getting corrupt bytes out of the fallback ladder's way.

// quarantineSuffix marks a file the scrubber took out of service: neither
// it nor its .prev decoded, so it must never again satisfy a read ladder.
const quarantineSuffix = ".quarantined"

// ScrubOutcome is one snapshot path's scrub verdict.
type ScrubOutcome int

const (
	// ScrubOK: the primary decodes (any corrupt .prev was removed).
	ScrubOK ScrubOutcome = iota
	// ScrubMissing: no primary file; nothing to verify.
	ScrubMissing
	// ScrubRepaired: the primary was corrupt and was atomically replaced
	// with its decodable .prev.
	ScrubRepaired
	// ScrubQuarantined: neither primary nor .prev decodes; both were
	// renamed *.quarantined and a *QuarantinedFileError returned.
	ScrubQuarantined
)

// QuarantinedFileError reports a snapshot whose every on-disk copy failed
// verification: the scrubber renamed the file(s) out of the read ladder
// and the next assignee of the cell starts from cycle 0 (or an older
// shipped copy) instead of resuming corrupt state.
type QuarantinedFileError struct {
	Path string
	Err  error // the primary's decode failure
}

func (e *QuarantinedFileError) Error() string {
	return fmt.Sprintf("snapshot: %s quarantined: no decodable copy: %v", e.Path, e.Err)
}

func (e *QuarantinedFileError) Unwrap() error { return e.Err }

// ScrubFile verifies one snapshot path at rest and repairs or
// quarantines it. Reads go through disk.ReadFile so seeded bitrot faults
// (chaos.BitrotRead) reach them; a fault on a scrub read can therefore
// cause a false repair — the .prev promoted over a healthy primary — which
// costs one checkpoint of resume progress and nothing else.
//
// Concurrent writers are tolerated by construction: WriteFile replaces
// the primary with a rename, and every scrub mutation is itself a rename,
// so the loser of a race leaves either the writer's fresh snapshot or the
// scrubber's repair — both decodable — never a torn file.
func ScrubFile(disk chaos.Disk, path string) (ScrubOutcome, error) {
	prev := path + prevSuffix
	_, errMain := readOne(disk, path)
	if errMain == nil {
		// Healthy primary. A corrupt .prev is dead weight that the read
		// ladder could still fall back to if the primary vanishes; clear it.
		if _, errPrev := readOne(disk, prev); errPrev != nil && !errors.Is(errPrev, os.ErrNotExist) {
			disk.Remove(prev)
		}
		return ScrubOK, nil
	}
	if errors.Is(errMain, os.ErrNotExist) {
		return ScrubMissing, nil
	}
	// Corrupt primary: promote the .prev if it decodes.
	if data, errPrev := disk.ReadFile(prev); errPrev == nil {
		if _, derr := Decode(data); derr == nil {
			if err := replaceFile(disk, path, data); err != nil {
				return ScrubOK, fmt.Errorf("snapshot: scrub repair %s: %w", path, err)
			}
			return ScrubRepaired, nil
		}
	}
	// No decodable copy anywhere: take both out of the read ladder.
	disk.Rename(path, path+quarantineSuffix)
	if _, err := disk.Stat(prev); err == nil {
		disk.Rename(prev, prev+quarantineSuffix)
	}
	return ScrubQuarantined, &QuarantinedFileError{Path: path, Err: errMain}
}

// replaceFile atomically writes data at path WITHOUT the WriteFile
// rotation: rotating here would shuffle the corrupt primary over the good
// .prev the repair just came from, destroying the only healthy copy.
func replaceFile(disk chaos.Disk, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := disk.CreateTemp(dir, ".snap-scrub-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		disk.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		disk.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		disk.Remove(tmpName)
		return err
	}
	if err := disk.Rename(tmpName, path); err != nil {
		disk.Remove(tmpName)
		return err
	}
	disk.SyncDir(dir)
	return nil
}
