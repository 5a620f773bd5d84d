package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"fgpsim/internal/chaos"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// This file is the sweep harness's crash-safe JSON-lines journal, exported
// so other long-running components (internal/server's request journal) can
// reuse the same durability contract instead of inventing a second format:
//
//   - one JSON value per line, appended with a single write(2) so a crash
//     tears at most the final line and concurrent appenders never interleave;
//   - the file is opened O_APPEND, so two processes (or a process restarted
//     over its own journal) extend it rather than overwrite it;
//   - every append is fsync'd before Append returns — an entry the caller
//     saw succeed survives a kill -9 or power cut;
//   - readers tolerate the torn tail: a line that fails to decode is
//     skipped, never fatal.

// Journal is an append-only, fsync'd JSON-lines file.
type Journal struct {
	mu   sync.Mutex
	disk chaos.Disk
	f    chaos.File
	path string
	// torn is set when a write failed after possibly landing a prefix with
	// no trailing newline. Without the guard, the next successful append
	// would glue its JSON onto that fragment and BOTH lines would fail to
	// decode on replay — a durably-acknowledged entry silently lost.
	torn   bool
	closed bool
	// poisoned is set when a failed fsync could not be repaired, and never
	// cleared: once an fsync fails, the kernel may have dropped the dirty
	// pages and a later successful fsync on the same descriptor proves
	// nothing about them (the PostgreSQL fsync-gate lesson). Append repairs
	// a failed fsync once through a fresh descriptor; if that fails too,
	// every later Append fails with this error.
	poisoned *PoisonedJournalError
}

// PoisonedJournalError reports a journal whose failed fsync could not be
// repaired: the entry being appended is not known durable, and the Journal
// refuses further appends so no caller can mistake a post-failure entry for
// a durable one.
type PoisonedJournalError struct {
	Path  string
	Cause error
}

func (e *PoisonedJournalError) Error() string {
	return fmt.Sprintf("exp: journal %s poisoned by failed fsync: %v", e.Path, e.Cause)
}

func (e *PoisonedJournalError) Unwrap() error { return e.Cause }

// fsyncFailures counts journal fsync failures process-wide, exported on
// /metrics as journal_fsync_failures.
var fsyncFailures atomic.Int64

// JournalFsyncFailures returns the process-wide count of journal fsync
// failures.
func JournalFsyncFailures() int64 { return fsyncFailures.Load() }

// OpenJournal opens (creating if needed) a journal for appending. Every
// persistence function takes the disk it works on first: chaos.OS{} is the
// real filesystem, and the chaos harness passes a fault-injecting chaos.FS.
// The journal keeps its disk for the fsync repair in Append.
func OpenJournal(disk chaos.Disk, path string) (*Journal, error) {
	f, torn, err := openAppend(disk, path)
	if err != nil {
		return nil, err
	}
	return &Journal{disk: disk, f: f, path: path, torn: torn}, nil
}

// openAppend opens path for appending and reports whether its existing
// tail is torn.
func openAppend(disk chaos.Disk, path string) (chaos.File, bool, error) {
	torn := tailIsTorn(disk, path)
	f, err := disk.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	return f, torn, err
}

// tailIsTorn reports whether an existing journal ends mid-line — the
// fragment a writer killed inside write(2) leaves. A journal opened over
// such a tail starts its first append on a fresh line (the torn guard in
// Append), otherwise that append — acknowledged durable to its caller —
// would glue onto the fragment and decode as garbage on replay.
func tailIsTorn(disk chaos.Disk, path string) bool {
	f, err := disk.Open(path)
	if err != nil {
		return false // missing file: a fresh journal has no tail
	}
	defer f.Close()
	last := byte('\n')
	buf := make([]byte, 32<<10)
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			last = buf[n-1]
		}
		if rerr != nil {
			return last != '\n'
		}
	}
}

// Path returns the file the journal appends to.
func (j *Journal) Path() string { return j.path }

// Append marshals v onto one line, writes it with a single write call, and
// fsyncs before returning: on success the entry is durable.
//
// A failed write marks the tail torn and returns the error; the next
// append starts on a fresh line. A failed fsync is repaired once: the
// descriptor is closed without another sync, the same path is reopened,
// and the entry is appended again. This is sound because every append
// fsyncs on its own, so the failed fsync covered only this entry, and the
// retry lands it through fresh dirty pages. If both copies reach the disk,
// readers dedup them (the cell merge by attempt and digest, the request
// journal by id). If the repair fails too, the journal is poisoned
// and this and every later Append return a *PoisonedJournalError. An
// Append after Close fails and never reopens the file.
func (j *Journal) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("exp: journal %s: %w", j.path, os.ErrClosed)
	}
	if j.poisoned != nil {
		return j.poisoned
	}
	if err := j.writeLine(data); err != nil {
		return err
	}
	serr := j.f.Sync()
	if serr == nil {
		return nil
	}
	fsyncFailures.Add(1)
	j.f.Close()
	f, torn, err := openAppend(j.disk, j.path)
	if err == nil {
		j.f, j.torn = f, torn
		if err = j.writeLine(data); err == nil {
			if err = j.f.Sync(); err == nil {
				return nil
			}
			fsyncFailures.Add(1)
		}
	}
	j.poisoned = &PoisonedJournalError{Path: j.path, Cause: serr}
	return j.poisoned
}

// writeLine writes data and a newline with one write call, first starting
// a fresh line when the tail is torn.
func (j *Journal) writeLine(data []byte) error {
	var line []byte
	if j.torn {
		// Start on a fresh line so a previously torn fragment stays an
		// isolated undecodable line (replay skips it) instead of swallowing
		// this entry too. Replay also skips the blank line this produces
		// when the torn write in fact landed nothing.
		line = append(line, '\n')
	}
	line = append(line, data...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		j.torn = true
		return err
	}
	j.torn = false
	return nil
}

// Close fsyncs any buffered state and closes the file. A poisoned journal
// closes without syncing (there is nothing left to promise) and returns
// its poison error. Close after Close fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("exp: journal %s: %w", j.path, os.ErrClosed)
	}
	j.closed = true
	if j.poisoned != nil {
		j.f.Close()
		return j.poisoned
	}
	if err := j.f.Sync(); err != nil {
		fsyncFailures.Add(1)
		j.poisoned = &PoisonedJournalError{Path: j.path, Cause: err}
		j.f.Close()
		return j.poisoned
	}
	return j.f.Close()
}

// ReplayJournal streams a journal's lines to fn in file order. A missing
// file is an empty journal. Blank lines are skipped; fn returning an error
// skips that line (it is how the torn tail of a killed writer, or any
// malformed line, is tolerated) — it never aborts the replay.
func ReplayJournal(disk chaos.Disk, path string, fn func(line []byte) error) error {
	f, err := disk.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		fn(line) // decode errors mean a torn/corrupt line: skip it
	}
	return sc.Err()
}

// journalEntry is one completed cell, serialized as a single JSON line.
//
// Attempt exists for multi-writer journals (the fabric coordinator's cell
// journal): when two workers race on a requeued cell, both records may land
// in arrival order, which is not deterministic, so the merge resolves
// duplicate keys by content instead (Supersedes). Single-writer journals (a
// plain sweep's resume journal) write attempt 0.
type journalEntry struct {
	Key   Key        `json:"key"`
	Stats *stats.Run `json:"stats"`
	// Attempt is the assignment ordinal under which the cell ran: the
	// fabric coordinator increments it on every requeue, steal and audit,
	// and a sweep it resumes after a restart starts above every attempt an
	// earlier boot handed out (its crash epoch), so a higher attempt is by
	// construction the later decision.
	Attempt int `json:"attempt,omitempty"`
	// Worker is the fabric worker that produced the result, so a restarted
	// coordinator knows whom to exclude from, and strike after, a tie-break
	// over a replayed winner. Plain sweeps and records of the previous
	// format carry none. It precedes Digest, which must stay the last field
	// (rawEntryDigest).
	Worker string `json:"worker,omitempty"`
	// Digest is the record's content digest (entryDigest: CRC32-C + length
	// over the record with this field cleared), verified on every read; a
	// mismatch rejects the record. Records of the previous format also
	// carry an "fp" field, which decodes to nothing and is covered by the
	// digest like any other byte of the line.
	Digest string `json:"digest,omitempty"`
}

// appendResult stamps the record's content digest and appends it. All cell
// records — fabric and plain sweeps alike — go through here, so every
// journal written by this version is scrub- and merge-verifiable.
func (j *Journal) appendResult(e journalEntry) error {
	e.Digest = entryDigest(e)
	return j.Append(e)
}

// AppendCell journals one completed cell under an explicit attempt ordinal
// and the worker that produced it, stamped with a content digest. This is
// the multi-writer append used by the fabric coordinator; plain sweeps
// append at attempt 0 with no worker.
func (j *Journal) AppendCell(k Key, s *stats.Run, attempt int, worker string) error {
	return j.appendResult(journalEntry{Key: k, Stats: s, Attempt: attempt, Worker: worker})
}

// journalSpec is a journal's identity record: the hex form of the sweep's
// SpecHash, written as the first line so a resume can tell "this journal
// belongs to a different sweep" from "this cell has not completed yet".
// Hex, not a JSON number — a uint64 does not survive float64 decoding.
type journalSpec struct {
	Spec string `json:"spec"`
}

// StaleJournalError reports a journal written under a different sweep
// specification than the one resuming from it. Replaying it would seed the
// grid with cells from other programs, inputs, or configurations, so the
// resume refuses instead.
type StaleJournalError struct {
	Path string
	Want uint64 // spec of the sweep trying to resume
	Got  uint64 // spec recorded in the journal
}

func (e *StaleJournalError) Error() string {
	return fmt.Sprintf("exp: journal %s was written for a different sweep (spec %016x, want %016x)",
		e.Path, e.Got, e.Want)
}

// SpecHash identifies a sweep's specification: every prepared benchmark —
// name, program fingerprint, measurement inputs — and every configuration
// field that changes timed execution (the same extension fields
// loader.Image.Fingerprint covers). Journal entries and cell snapshots are
// only ever replayed into a sweep with the identical hash.
func SpecHash(prepared []*Prepared, cfgs []machine.Config) uint64 {
	h := specFNV(0xcbf29ce484222325)
	h.u64(uint64(len(prepared)))
	for _, p := range prepared {
		h.str(p.Bench.Name)
		h.u64(loader.ProgramFingerprint(p.Prog))
		h.blob(p.In0)
		h.blob(p.In1)
	}
	h.u64(uint64(len(cfgs)))
	for _, cfg := range cfgs {
		h.str(cfg.String())
		h.u64(uint64(int64(cfg.BTBEntries)))
		h.u64(uint64(int64(cfg.GShareBits)))
		h.u64(uint64(int64(cfg.WindowOverride)))
		h.byte(byte(cfg.Predictor))
		if cfg.ConservativeMem {
			h.byte(1)
		} else {
			h.byte(0)
		}
	}
	return uint64(h)
}

type specFNV uint64

func (h *specFNV) byte(b byte) { *h = (*h ^ specFNV(b)) * 0x100000001b3 }
func (h *specFNV) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}
func (h *specFNV) blob(b []byte) {
	h.u64(uint64(len(b)))
	for _, c := range b {
		h.byte(c)
	}
}
func (h *specFNV) str(s string) { h.blob([]byte(s)) }

// CheckJournalSpec verifies that a journal's spec record (when present)
// matches spec, returning a *StaleJournalError on mismatch. found reports
// whether any spec record exists: a missing or empty journal has none and
// the caller should write one.
func CheckJournalSpec(disk chaos.Disk, path string, spec uint64) (found bool, err error) {
	var got uint64
	rerr := ReplayJournal(disk, path, func(line []byte) error {
		if found {
			return nil
		}
		var js journalSpec
		if jerr := json.Unmarshal(line, &js); jerr != nil || js.Spec == "" {
			return nil
		}
		if _, serr := fmt.Sscanf(js.Spec, "%x", &got); serr != nil {
			return nil // torn/corrupt spec line: ignore like any other
		}
		found = true
		return nil
	})
	if rerr != nil {
		return false, rerr
	}
	if found && got != spec {
		return true, &StaleJournalError{Path: path, Want: spec, Got: got}
	}
	return found, nil
}

// WriteSpec appends the sweep's spec record to the journal.
func (j *Journal) WriteSpec(spec uint64) error {
	return j.Append(journalSpec{Spec: fmt.Sprintf("%016x", spec)})
}

// Supersedes reports whether a record stamped (newAttempt, newDigest)
// replaces one stamped (curAttempt, curDigest) for the same cell. The order
// is deterministic in record content, not file order: a higher attempt wins
// (it is the later scheduling decision), and between equal attempts the
// larger content digest (DigestStats) wins. Records equal on both are
// byte-identical results, so the last write wins and file order is
// immaterial. The fabric coordinator applies the same rule to results
// arriving live over HTTP that MergeJournals applies to records read from
// disk, so a crash and restart settle a raced cell as the live process did.
func Supersedes(curAttempt int, curDigest string, newAttempt int, newDigest string) bool {
	if newAttempt != curAttempt {
		return newAttempt > curAttempt
	}
	return newDigest >= curDigest
}

// CellRecord is one merged journal winner with its merge stamp — the
// attempt and the content digest (DigestStats) of its stats — and its
// producing worker ("" when the record names none).
type CellRecord struct {
	Stats   *stats.Run
	Attempt int
	Digest  string
	Worker  string
}

// MergeJournals reads cell journals — a plain sweep's resume journal, the
// fabric coordinator's, or several writers' — into one winner per key
// under Supersedes. The result is independent of the order records landed
// within each file and of the order the paths are given. Every record must
// carry a matching content digest (verifyCellLine): one that does not is
// rejected — reported through onReject, which may be nil, and left out, so
// its cell appears unfinished and re-runs — but never aborts the merge. A
// missing file is an empty journal, and an unparseable final line is the
// torn tail of a killed writer, tolerated silently.
func MergeJournals(disk chaos.Disk, onReject func(*IntegrityError), paths ...string) (map[Key]CellRecord, error) {
	m := make(map[Key]CellRecord)
	for _, path := range paths {
		err := walkCells(disk, path, onReject, func(e *journalEntry) {
			// Digests were verified over the record as written; a record
			// whose BlockSizes decoded as nil was written with null, so
			// normalizing comes after verification.
			if e.Stats.BlockSizes == nil {
				e.Stats.BlockSizes = make(map[int]int64)
			}
			d := DigestStats(e.Stats)
			if cur, ok := m[e.Key]; !ok || Supersedes(cur.Attempt, cur.Digest, e.Attempt, d) {
				m[e.Key] = CellRecord{Stats: e.Stats, Attempt: e.Attempt, Digest: d, Worker: e.Worker}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
