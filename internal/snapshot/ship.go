package snapshot

import (
	"fmt"

	"fgpsim/internal/chaos"
)

// This file is the shipping layer: moving snapshots between machines as
// opaque byte blobs. The encoded format is already self-validating (magic,
// version, CRC32C-framed sections — snapshot.go), so the wire adds nothing:
// a sender loads the latest decodable bytes, a receiver re-validates them
// before letting them near its snapshot directory. A blob corrupted in
// transit — truncated body, bit flips, a proxy that mangled it — is
// rejected exactly the way a torn on-disk snapshot is, and the receiver's
// store stays clean.

// LoadShippable returns the encoded bytes of the newest decodable snapshot
// at path (trying path, then path.prev, like ReadLatest) together with its
// fingerprint. The bytes are re-encoded from the decoded form rather than
// read raw, so what ships is exactly what validated — a file with trailing
// garbage or a decodable-prefix tear never ships the damage onward.
func LoadShippable(disk chaos.Disk, path string) ([]byte, uint64, error) {
	s, err := ReadLatest(disk, path)
	if err != nil {
		return nil, 0, err
	}
	return Encode(s), s.Fingerprint, nil
}

// Store validates wire bytes and, only if they decode cleanly, persists
// them atomically at path (WriteFile's temp+fsync+rename+rotate dance).
// It returns the validated snapshot's fingerprint so the caller can index
// the stored file without decoding twice.
func Store(disk chaos.Disk, path string, data []byte) (uint64, error) {
	s, err := Decode(data)
	if err != nil {
		return 0, fmt.Errorf("snapshot: refusing to store wire bytes: %w", err)
	}
	if err := WriteFile(disk, path, s); err != nil {
		return 0, err
	}
	return s.Fingerprint, nil
}

// Exists reports whether any snapshot file (current or rotated) is present
// at path — a cheap pre-check before paying for LoadShippable.
func Exists(disk chaos.Disk, path string) bool {
	if _, err := disk.Stat(path); err == nil {
		return true
	}
	if _, err := disk.Stat(path + prevSuffix); err == nil {
		return true
	}
	return false
}
