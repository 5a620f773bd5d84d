package server

import (
	"fgpsim/internal/stats"
)

// The fabric is how every sweep runs: one coordinator (every Server) owning
// the grid, and workers (Worker, worker.go) pulling cells from it over
// HTTP — N remote ones when the Server is started with Config.Coordinator,
// otherwise one in-process worker whose requests reach the coordinator's
// handlers through an in-memory transport (local.go). The protocol is
// deliberately pull-shaped — workers register, heartbeat, poll for batches
// of cells, and post results — so the coordinator never needs to reach
// into a worker's network, and a worker behind the worst kind of partition
// simply looks dead and has its cells requeued. Every message that matters
// is idempotent or deduplicated: registration supersedes atomically
// (registry.go), results merge under the journal's deterministic
// (attempt, fingerprint) order (exp/journal.go), and shipped snapshots are
// validated before they touch disk (snapshot/ship.go). See DESIGN.md §15.
//
// This file is the wire vocabulary; the coordinator half lives in
// coordinator.go/registry.go/stealing.go and the worker half in worker.go.

// registerRequest is POST /fabric/register: a worker announcing itself
// under a stable identity. Re-registering the same identity supersedes the
// previous registration (its lease dies, its in-flight cells requeue).
type registerRequest struct {
	Worker string `json:"worker"`
}

// registerResponse carries the lease epoch the worker must present on
// every subsequent request. A stale lease gets 410 Gone, telling the
// worker to re-register.
type registerResponse struct {
	Lease uint64 `json:"lease"`
}

// heartbeatRequest is POST /fabric/heartbeat, the worker's liveness beacon
// between polls. Polls and result posts count as beats too; the explicit
// heartbeat only matters while every slot is busy simulating.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
}

// pollRequest is POST /fabric/poll: give me up to Max cells.
type pollRequest struct {
	Worker string `json:"worker"`
	Lease  uint64 `json:"lease"`
	Max    int    `json:"max"`
}

// pollResponse is one batch of assignments, all from one sweep. Source and
// the input streams ride along so a worker can prepare an ad-hoc program
// without any side channel; benchmark cells name their bench per cell.
type pollResponse struct {
	SweepID string `json:"sweep_id,omitempty"`
	Source  string `json:"source,omitempty"`
	In0     string `json:"in0,omitempty"`
	In1     string `json:"in1,omitempty"`
	Retries int    `json:"retries,omitempty"`
	Timeout string `json:"timeout,omitempty"`
	// CheckpointEvery is the coordinator's durable-checkpoint cadence.
	// Workers must run cells at exactly this cadence: checkpoint boundaries
	// drain the engine identically everywhere, which is part of why a
	// fabric merge is byte-identical to a single-node run of the same
	// configuration.
	CheckpointEvery int64            `json:"checkpoint_every,omitempty"`
	Cells           []cellAssignment `json:"cells,omitempty"`
	// WaitMS is a backoff hint for an empty answer. This coordinator holds
	// empty polls instead and sends none; workers still honour a hint from
	// a coordinator that sends one.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// cellAssignment is one grid cell handed to a worker.
type cellAssignment struct {
	// Cell is the canonical cell identity (exp.CellID) the worker echoes
	// back with its result.
	Cell   string     `json:"cell"`
	Bench  string     `json:"bench,omitempty"` // empty = the sweep's Source program
	Config ConfigSpec `json:"config"`
	// Attempt is the coordinator's assignment ordinal for this cell; it
	// stamps the result's journal record so duplicate deliveries from raced
	// assignments merge deterministically.
	Attempt int `json:"attempt"`
	// Snapshot, when present, is an encoded mid-run snapshot shipped by a
	// previous assignee (possibly one that is now dead); the worker stores
	// it locally before running so the cell resumes instead of restarting.
	Snapshot []byte `json:"snapshot,omitempty"`
	// Audit marks a re-execution audit of an already-settled cell
	// (DESIGN.md §17): the worker must run it from scratch — same
	// checkpoint cadence, but no resume from snapshots — and echo the flag
	// back so the coordinator compares digests instead of settling the
	// cell again.
	Audit bool `json:"audit,omitempty"`
}

// resultRequest is POST /fabric/result: one settled cell. Exactly one of
// Stats (success) or Err (quarantined failure after the worker's retries)
// is set. Results are accepted regardless of lease: a result computed by a
// superseded or presumed-dead worker is still a correct result, and the
// deterministic merge absorbs the duplicate.
type resultRequest struct {
	Worker  string     `json:"worker"`
	Lease   uint64     `json:"lease"`
	SweepID string     `json:"sweep_id"`
	Cell    string     `json:"cell"`
	Attempt int        `json:"attempt"`
	Stats   *stats.Run `json:"stats,omitempty"`
	Err     string     `json:"err,omitempty"`
	// Digest is exp.DigestStats over Stats, computed by the worker at run
	// time. The coordinator recomputes it on arrival: a mismatch means the
	// result was corrupted in flight (or the worker lied about its own
	// bytes) and is rejected with a strike instead of journaled.
	Digest string `json:"digest,omitempty"`
	// Audit echoes cellAssignment.Audit: this result is an audit
	// re-execution to compare against the settled winner, not a settlement.
	Audit bool `json:"audit,omitempty"`
	// Attempts and ElapsedUS are the cell's simulation attempts and wall
	// time across them (exp.CellOutcome), folded into the coordinator's
	// retries and run_latency_us metrics. The digest does not cover them.
	Attempts  int   `json:"attempts,omitempty"`
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
}

// assignRecord is one line of the coordinator's fsync'd assignment
// journal: the batch of cells handed out in one poll response, with their
// attempt ordinals. On a coordinator crash-and-restart the replay restores
// each cell's attempt high-water mark, so post-restart assignments keep
// superseding pre-restart ones and late results from workers that never
// noticed the crash still merge in the right order.
type assignRecord struct {
	Op     string       `json:"op"` // "assign"
	Worker string       `json:"worker"`
	Cells  []assignCell `json:"cells"`
}

type assignCell struct {
	ID      string `json:"id"`
	Attempt int    `json:"attempt"`
}
