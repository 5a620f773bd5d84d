package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"fgpsim/internal/chaos"
	"fgpsim/internal/stats"
)

// This file is the sweep fabric's end-to-end integrity layer (DESIGN.md
// §17). The simulator is deterministic — the same cell always produces
// byte-identical stats — so every hop a result crosses (worker → ship RPC
// → journal append → merge → served status) can carry a content digest of
// the canonical encoding and verify it cheaply. A mismatch anywhere is a
// *IntegrityError: the record is rejected and the cell re-runs, rather
// than a flipped bit silently poisoning a 10k-cell merged sweep.
//
// The digest is CRC32-C over the canonical (encoding/json) serialization,
// suffixed with the byte length. CRC32-C is not cryptographic — the threat
// model is bitrot, torn writes, and buggy workers, not adversaries — but
// it is cheap enough to verify on every journal replay, and the sampled
// re-execution audit (coordinator.go) backstops it with full byte
// comparison against an independent run.

// castagnoli is the CRC32-C table, shared by every digest computation.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentDigest is the digest of a canonical encoding: "crc32c:length".
// Digests are compared as opaque strings, never parsed.
func contentDigest(data []byte) string {
	return fmt.Sprintf("%08x:%d", crc32.Checksum(data, castagnoli), len(data))
}

// DigestStats is the content digest of one cell result over its canonical
// JSON encoding. encoding/json is deterministic here — struct field order
// is fixed and map keys are sorted — so two byte-identical results always
// digest equal, and (because the simulator is deterministic) so do two
// honest executions of the same cell on different workers.
func DigestStats(s *stats.Run) string {
	data, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	return contentDigest(data)
}

// entryDigest is the content digest of a journal record: the entry's
// canonical encoding with the Digest field itself cleared. It covers the
// key, stats and attempt together, so a flipped bit in any
// of them — not just the payload — fails verification.
func entryDigest(e journalEntry) string {
	e.Digest = ""
	data, err := json.Marshal(e)
	if err != nil {
		return ""
	}
	return contentDigest(data)
}

// rawEntryDigest recomputes a record's digest over the exact bytes that
// were appended: Digest is the entry's last struct field and omitempty, so
// the line as written is the digestless marshal with `,"digest":"…"`
// spliced in before the closing brace, and stripping that suffix recovers
// the digested bytes verbatim. Verifying the raw bytes (rather than a
// canonical re-marshal of the decoded entry) closes the one hole a
// re-marshal leaves: a flipped bit in the field NAME of a zero-valued
// field decodes to the same entry — unknown field ignored, zero default
// restored — and would re-encode to a matching canonical form. Lines not
// in the writer's append shape (foreign field order) fall back to the
// canonical re-marshal.
func rawEntryDigest(line []byte, e journalEntry) string {
	suffix := []byte(`,"digest":"` + e.Digest + `"}`)
	if bytes.HasSuffix(line, suffix) {
		raw := make([]byte, 0, len(line)-len(suffix)+1)
		raw = append(raw, line[:len(line)-len(suffix)]...)
		raw = append(raw, '}')
		return contentDigest(raw)
	}
	return entryDigest(e)
}

// IntegrityError reports a content-digest mismatch (or a record too
// damaged to carry one) at some hop of a result's life: ship RPC, journal
// append, merge replay, or scrub. It is a rejection of one record, never
// of the sweep — the affected cell simply is not settled by that record
// and re-runs.
type IntegrityError struct {
	Path   string // journal file, when the hop is on disk
	Key    Key    // the affected cell, when the record was parseable
	Hop    string // where verification failed: "ship", "append", "merge", "scrub"
	Want   string // digest the record claims
	Got    string // digest the bytes actually have
	Detail string // what went wrong when there is no want/got pair
}

func (e *IntegrityError) Error() string {
	where := e.Hop
	if e.Path != "" {
		where += " " + e.Path
	}
	if e.Detail != "" {
		return fmt.Sprintf("exp: integrity violation at %s: %s", where, e.Detail)
	}
	return fmt.Sprintf("exp: integrity violation at %s: digest %s, want %s", where, e.Got, e.Want)
}

// verifyCellLine classifies one journal line under the strict digest
// policy: every record must carry a digest and the digest must match.
// Returns (entry, nil) for a verified cell record, (nil, nil) for lines
// that are legitimately not cell records — the journal's spec line, a
// blank line, or an unparseable *final* line (the torn tail a killed
// writer leaves, tolerated by the durability contract) — and (nil, err)
// for anything else.
func verifyCellLine(path string, line []byte, final bool) (*journalEntry, *IntegrityError) {
	if len(line) == 0 {
		return nil, nil
	}
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		if final {
			return nil, nil // torn tail: tolerated, never an integrity verdict
		}
		return nil, &IntegrityError{Path: path, Hop: "merge", Detail: fmt.Sprintf("undecodable mid-file record: %v", err)}
	}
	if e.Stats == nil && e.Digest == "" {
		// Not shaped like a cell record at all: the spec line decodes this
		// way, and so does a record whose field names were corrupted.
		var js journalSpec
		if json.Unmarshal(line, &js) == nil && js.Spec != "" {
			return nil, nil
		}
		return nil, &IntegrityError{Path: path, Hop: "merge", Detail: "record without stats or digest"}
	}
	if e.Stats == nil {
		return nil, &IntegrityError{Path: path, Key: e.Key, Hop: "merge", Detail: "digested record without stats"}
	}
	if e.Digest == "" {
		return nil, &IntegrityError{Path: path, Key: e.Key, Hop: "merge", Detail: "record without digest"}
	}
	if got := rawEntryDigest(line, e); got != e.Digest {
		return nil, &IntegrityError{Path: path, Key: e.Key, Hop: "merge", Want: e.Digest, Got: got}
	}
	return &e, nil
}

// walkCells is the one read of a cell journal: every line goes through
// verifyCellLine, each verified record to fn in file order and each
// rejected one to onReject (which may be nil). A missing file is an empty
// journal. The read goes through disk.ReadFile so seeded bitrot faults
// (chaos.BitrotRead) reach it.
func walkCells(disk chaos.Disk, path string, onReject func(*IntegrityError), fn func(*journalEntry)) error {
	data, err := disk.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		// A complete journal ends with '\n', so Split leaves an empty last
		// element; a non-empty last element IS the torn tail.
		e, ierr := verifyCellLine(path, bytes.TrimSpace(line), i == len(lines)-1)
		switch {
		case ierr != nil:
			if onReject != nil {
				onReject(ierr)
			}
		case e != nil:
			fn(e)
		}
	}
	return nil
}

// ScrubJournal re-walks one cell journal and reports every record that
// fails verification, without mutating anything — journals are
// append-only and shared with live writers, and a corrupt record is
// already harmless (MergeJournals rejects it), so the scrubber's job here
// is detection, not repair. total counts the verified cell records.
func ScrubJournal(disk chaos.Disk, path string) (total int, bad []*IntegrityError, err error) {
	err = walkCells(disk, path, func(ie *IntegrityError) {
		ie.Hop = "scrub"
		bad = append(bad, ie)
	}, func(*journalEntry) { total++ })
	return total, bad, err
}
