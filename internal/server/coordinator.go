package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"fgpsim/internal/exp"
	"fgpsim/internal/snapshot"
	"fgpsim/internal/stats"
)

// coordinator is the fabric's scheduling brain, attached to a Server
// started with Config.Coordinator. It owns the authoritative cell state of
// every accepted sweep: which cells are pending (and which worker's shard
// they belong to, via the consistent-hash ring over image-cache keys),
// which are in flight under which lease, and which are settled with what
// winning record. One mutex guards all of it; the fsync'd journals (cell
// results, assignments) are appended outside the lock, in whatever order
// the handlers race — the deterministic (attempt, fingerprint) merge makes
// file order immaterial.
type coordinator struct {
	s       *Server
	wd      *watchdog // worker-liveness watchdog (beats = authenticated requests)
	snapDir string    // shipped-snapshot store, keyed by cell id

	mu       sync.Mutex
	workers  map[string]*workerEnt
	leaseSeq uint64
	ring     *exp.Ring
	jobs     map[string]*fabricJob
	jobOrder []string
}

type cellState int

const (
	cellPending cellState = iota
	cellInflight
	cellDone
	cellFailed
)

// auditState tracks a done cell's re-execution audit (DESIGN.md §17).
// The values are ordered so that decrementing an inflight state reverts it
// to its pending form — the requeue path when an auditor dies, is
// quarantined, or delivers a transit-corrupted result.
type auditState int

const (
	auditNone     auditState = iota
	auditPending             // sampled; waiting for an eligible worker to poll
	auditInflight            // assigned to auditWorker
	tiebreakPending
	tiebreakInflight
	auditDone
)

// fabricCell is one grid cell's authoritative state.
type fabricCell struct {
	id    string // exp.CellID — the wire identity
	bench string // "" = the sweep's Source program
	spec  ConfigSpec
	key   exp.Key
	shard uint64 // exp.ShardKey — image-cache affinity on the ring

	state     cellState
	attempt   int // assignment high-water mark
	assignees []cellAssignee

	// Winning record, mirrored from the journal's dedup order so live
	// arrivals and post-restart replays settle identically. winWorker and
	// winDigest feed the audit comparison; both are empty for cells
	// restored from a journal replay (those are never audited).
	winAttempt int
	winFp      uint64
	winWorker  string
	winDigest  string
	errText    string

	// Re-execution audit state. auditExcl lists workers that may not run
	// the (next) audit: the winner and any auditor whose bytes already
	// disagreed — anti-affinity is the whole point of re-execution.
	audit        auditState
	auditWorker  string
	auditLease   uint64
	auditAttempt int
	auditExcl    []string

	// Candidate record from a disagreeing audit, held until a tie-break
	// picks between it and the current winner.
	candWorker string
	candFp     uint64
	candDigest string
	candStats  *stats.Run
}

type cellAssignee struct {
	worker  string
	lease   uint64
	attempt int
	at      time.Time
}

// fabricJob is one sweep being executed by the fabric. It wraps the
// Server's ordinary job (which renders /sweep/{id} exactly as a
// single-node run would — part of the byte-identity story).
type fabricJob struct {
	j    *job
	spec SweepSpec

	// The journals are nil when persistence is off; exp.Journal repairs a
	// failed fsync itself and refuses appends once the sweep closes them.
	cellJournal   *exp.Journal // results, exp.AppendCell records
	assignJournal *exp.Journal // assignRecord lines

	cells map[string]*fabricCell
	order []string // cell ids in grid order (prepared outer, configs inner)

	pendingN int
	doneN    int
	failedN  int
	finished bool

	// Audit accounting. auditsPending holds the sweep open (settledLocked)
	// until every sampled audit reaches a verdict; the others mirror into
	// the job's status under j.mu (syncIntegrityLocked).
	auditsPending      int
	auditsRun          int
	auditsDisagreed    int
	auditsResolved     int
	integrityFailuresN int
}

func newCoordinator(s *Server) (*coordinator, error) {
	dir := ""
	if s.cfg.JournalDir != "" {
		dir = filepath.Join(s.cfg.JournalDir, "fabric-snapshots")
	} else {
		var err error
		dir, err = os.MkdirTemp("", "fgpsim-fabric-")
		if err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	interval := s.cfg.WorkerDeadAfter / 4
	return &coordinator{
		s:       s,
		wd:      newWatchdog(interval, s.cfg.WorkerDeadAfter),
		snapDir: dir,
		workers: make(map[string]*workerEnt),
		ring:    exp.NewRing(),
		jobs:    make(map[string]*fabricJob),
	}, nil
}

func (c *coordinator) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /fabric/register", c.handleRegister)
	mux.HandleFunc("POST /fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/poll", c.handlePoll)
	mux.HandleFunc("POST /fabric/result", c.handleResult)
	mux.HandleFunc("POST /fabric/deregister", c.handleDeregister)
	mux.HandleFunc("PUT /fabric/snapshot/{cell}", c.handleSnapshotPut)
}

func (c *coordinator) assignJournalPath(id string) string {
	if c.s.cfg.JournalDir == "" {
		return ""
	}
	return filepath.Join(c.s.cfg.JournalDir, "sweep-"+id+".assign")
}

// start takes ownership of an accepted sweep: enumerate its cells in grid
// order, replay any prior cell/assignment journals (the recovered case —
// a coordinator crash or drain with the sweep unfinished), and queue the
// rest for the workers. recovered distinguishes a restart replay from a
// fresh accept only for metrics; the machinery is identical because an
// empty journal replays to nothing.
func (c *coordinator) start(j *job, recovered bool) error {
	fj := &fabricJob{
		j:     j,
		spec:  j.Spec,
		cells: make(map[string]*fabricCell),
	}
	benches := j.Spec.Benches
	if len(benches) == 0 {
		benches = []string{""}
	}
	for _, b := range benches {
		name := b
		if name == "" {
			name = sourceName(j.Spec.Source, j.Spec.In0, j.Spec.In1)
		}
		for _, cs := range j.Spec.Configs {
			cfg, err := cs.Config()
			if err != nil {
				return err // unreachable: validated at accept
			}
			key := exp.KeyOf(name, cfg)
			cell := &fabricCell{
				id:    exp.CellID(key),
				bench: b,
				spec:  cs,
				key:   key,
				shard: exp.ShardKey(name, cfg),
			}
			fj.cells[cell.id] = cell
			fj.order = append(fj.order, cell.id)
		}
	}

	disk := c.s.cfg.disk()
	cellPath := c.s.cellJournalPath(j.ID)
	if cellPath != "" {
		// Strict digest verification on replay: a bitrotted or torn record
		// is rejected (counted, logged) and its cell simply requeues —
		// corruption on disk never becomes a served result.
		prior, err := exp.MergeJournalRecordsVerified(disk, func(ie *exp.IntegrityError) {
			c.s.met.integrityFailures.Add(1)
			fmt.Fprintf(os.Stderr, "server: fabric journal: %v\n", ie)
		}, cellPath)
		if err != nil {
			return fmt.Errorf("server: fabric journal %s: %w", cellPath, err)
		}
		for _, cid := range fj.order {
			cell := fj.cells[cid]
			if rec, ok := prior[cell.key]; ok {
				cell.state = cellDone
				cell.winAttempt, cell.winFp = rec.Attempt, rec.Fp
				fj.doneN++
				j.mu.Lock()
				j.results[keyString(cell.key)] = rec.Stats
				j.digests[keyString(cell.key)] = exp.DigestStats(rec.Stats)
				j.mu.Unlock()
				c.s.met.cellsRestored.Add(1)
			}
		}
		fj.cellJournal, err = exp.OpenJournal(disk, cellPath)
		if err != nil {
			return fmt.Errorf("server: fabric journal %s: %w", cellPath, err)
		}
	}
	if ap := c.assignJournalPath(j.ID); ap != "" {
		// Restore each cell's attempt high-water mark so post-restart
		// assignments supersede pre-restart ones in the merge order.
		exp.ReplayJournal(disk, ap, func(line []byte) error {
			var rec assignRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			for _, a := range rec.Cells {
				if cell := fj.cells[a.ID]; cell != nil && a.Attempt > cell.attempt {
					cell.attempt = a.Attempt
				}
			}
			return nil
		})
		var err error
		fj.assignJournal, err = exp.OpenJournal(disk, ap)
		if err != nil {
			return fmt.Errorf("server: assignment journal %s: %w", ap, err)
		}
	}

	for _, cid := range fj.order {
		if fj.cells[cid].state == cellPending {
			fj.pendingN++
		}
	}
	j.setState(jobRunning)
	j.setProgress(fj.doneN, len(fj.order))

	c.mu.Lock()
	c.jobs[j.ID] = fj
	c.jobOrder = append(c.jobOrder, j.ID)
	finished := fj.settledLocked()
	c.mu.Unlock()
	if finished {
		// Every cell was already journaled (crash after the last result,
		// before the done record).
		c.finishJob(fj)
	}
	return nil
}

// settledLocked reports the sweep ready to finish: every cell settled and
// every sampled audit resolved. Pending audits are in-memory only — a
// coordinator crash forgets them and the restarted sweep finishes on its
// journaled results, which is safe because audits never gate correctness,
// only detection.
func (fj *fabricJob) settledLocked() bool {
	return !fj.finished && fj.doneN+fj.failedN == len(fj.order) && fj.auditsPending == 0
}

// handlePoll hands a worker up to Max cells: its own shard first, then
// anything pending (counted as stolen), then — when nothing is pending —
// a duplicate assignment of the oldest straggler (stealing.go).
func (c *coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	c.mu.Lock()
	ent := c.workers[req.Worker]
	if ent == nil || ent.lease != req.Lease {
		c.mu.Unlock()
		writeJSON(w, http.StatusGone, map[string]any{"error": "stale lease; re-register"})
		return
	}
	ent.beat.Add(1)
	var fj *fabricJob
	var picked []pickedCell
	for _, id := range c.jobOrder {
		job := c.jobs[id]
		if job.finished {
			continue
		}
		if picked = c.pickLocked(job, req.Worker, req.Lease, max, now); len(picked) > 0 {
			fj = job
			break
		}
	}
	resp := pollResponse{WaitMS: 200}
	rec := assignRecord{Op: "assign", Worker: req.Worker}
	if fj != nil {
		resp = pollResponse{
			SweepID:         fj.j.ID,
			Source:          fj.spec.Source,
			In0:             fj.spec.In0,
			In1:             fj.spec.In1,
			Retries:         fj.spec.Retries,
			Timeout:         fj.spec.Timeout,
			CheckpointEvery: c.s.cfg.CheckpointEvery,
		}
		for _, p := range picked {
			resp.Cells = append(resp.Cells, cellAssignment{
				Cell:    p.cell.id,
				Bench:   p.cell.bench,
				Config:  p.cell.spec,
				Attempt: p.cell.attempt,
				Audit:   p.audit,
			})
			rec.Cells = append(rec.Cells, assignCell{ID: p.cell.id, Attempt: p.cell.attempt})
		}
	}
	c.mu.Unlock()
	if fj == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Durable before visible: the assignment journal line lands (fsync'd)
	// before the worker can possibly produce a result under it.
	if fj.assignJournal != nil {
		fj.assignJournal.Append(rec)
	}
	disk := c.s.cfg.disk()
	// Attach shipped snapshots so a requeued cell resumes mid-run. Disk IO
	// deliberately happens outside the coordinator lock. Audits never get a
	// snapshot: re-execution must be independent of the bytes it audits.
	for i := range resp.Cells {
		if resp.Cells[i].Audit {
			continue
		}
		path := filepath.Join(c.snapDir, resp.Cells[i].Cell+".snap")
		if snapshot.Exists(disk, path) {
			if data, _, err := snapshot.LoadShippable(disk, path); err == nil {
				resp.Cells[i].Snapshot = data
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResult settles one cell. The journal append happens BEFORE the
// in-memory settle and before the 200: a result the worker saw
// acknowledged is durable, and a coordinator crash between the two
// replays the journal to the same winner the live path would have picked.
// Torn bodies (a connection cut mid-POST) fail JSON decoding and change
// nothing; the worker retries the POST whole.
func (c *coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if (req.Stats == nil) == (req.Err == "") {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "exactly one of stats or err required"})
		return
	}
	// Digest gate: recompute the content digest over the stats as decoded
	// and compare against the one the worker computed at run time. A
	// mismatch means the payload changed between the worker's engine and
	// this handler — corruption in flight or at source — so the record is
	// rejected before it can touch the journal, the producing assignment is
	// dropped (requeueing the cell), and the sender takes a strike. An
	// empty digest is a legacy/disarmed worker: trusted as before.
	if req.Stats != nil && req.Digest != "" && exp.DigestStats(req.Stats) != req.Digest {
		c.rejectCorrupt(&req)
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "integrity: result digest mismatch"})
		return
	}
	c.mu.Lock()
	// Results are accepted from any lease — even a superseded or
	// presumed-dead worker computed the right answer — but only a live
	// lease's beat counter advances.
	if ent := c.workers[req.Worker]; ent != nil && ent.lease == req.Lease {
		ent.beat.Add(1)
	}
	fj := c.jobs[req.SweepID]
	var cell *fabricCell
	finished := false
	if fj != nil {
		cell = fj.cells[req.Cell]
		finished = fj.finished
	}
	c.mu.Unlock()
	if cell == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown sweep or cell"})
		return
	}
	if finished {
		// The sweep settled while this delivery limped in — a straggler
		// duplicate of work that already completed elsewhere. Determinism
		// makes it byte-identical to the recorded winner; acknowledge it so
		// the worker stops retrying, and drop it.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
		return
	}
	if req.Audit {
		// An audit re-execution is a verdict, not a settlement: it is never
		// journaled (unless it wins a tie-break) and never changes doneN.
		c.handleAuditResult(w, fj, cell, &req)
		return
	}
	if req.Stats != nil {
		if err := fj.appendCell(cell.key, req.Stats, req.Attempt); err != nil {
			// An append can race the job finishing (the journal closes with
			// it); that is the same late-straggler case, not a server error.
			c.mu.Lock()
			finished = fj.finished
			c.mu.Unlock()
			if finished {
				writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
				return
			}
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("journal: %v", err)})
			return
		}
	}
	c.mu.Lock()
	c.settleLocked(fj, cell, &req)
	finished = fj.settledLocked()
	if finished {
		fj.finished = true
	}
	c.mu.Unlock()
	if finished {
		c.finishJob(fj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// settleLocked folds one delivered result into the cell under the same
// deterministic order the journal merge uses (exp.Supersedes), so
// duplicate deliveries, late deliveries after a requeue settled the cell
// elsewhere, and replayed journals all converge on the same winner.
// Requires c.mu.
func (c *coordinator) settleLocked(fj *fabricJob, cell *fabricCell, req *resultRequest) {
	// Drop the assignment that produced this result (best effort: it may
	// already be gone if the worker was declared dead first).
	n := cell.assignees[:0]
	for _, a := range cell.assignees {
		if !(a.worker == req.Worker && a.attempt == req.Attempt) {
			n = append(n, a)
		}
	}
	cell.assignees = n

	if req.Stats != nil {
		fp := exp.StatsFingerprint(req.Stats)
		wasFailed := false
		switch cell.state {
		case cellDone:
			if !exp.Supersedes(cell.winAttempt, cell.winFp, req.Attempt, fp) {
				return
			}
		case cellFailed:
			// A success beats a quarantined failure regardless of stamps —
			// the failure was environmental (the deterministic simulator
			// cannot both fail and succeed on the same cell).
			fj.failedN--
			cell.errText = ""
			wasFailed = true
		case cellPending:
			fj.pendingN--
		}
		if cell.state != cellDone {
			fj.doneN++
			c.s.met.cellsDone.Add(1)
		}
		cell.state = cellDone
		cell.winAttempt, cell.winFp = req.Attempt, fp
		cell.winWorker = req.Worker
		cell.winDigest = exp.DigestStats(req.Stats)
		if wasFailed {
			fj.syncFailedLocked()
		}
		fj.j.mu.Lock()
		fj.j.results[keyString(cell.key)] = req.Stats
		fj.j.digests[keyString(cell.key)] = cell.winDigest
		fj.j.done = fj.doneN
		fj.j.mu.Unlock()
		c.maybeAuditLocked(fj, cell)
		return
	}
	// Failure: settles the cell only if nothing better has. First failure
	// wins among failures; a duplicate assignment may still land a success
	// later and flip it above.
	if cell.state == cellDone || cell.state == cellFailed {
		return
	}
	if cell.state == cellPending {
		fj.pendingN--
	}
	cell.state = cellFailed
	cell.errText = req.Err
	fj.failedN++
	c.s.met.cellsFailed.Add(1)
	fj.syncFailedLocked()
}

// syncFailedLocked rebuilds the job's failed-cell list in grid order (the
// deterministic order a status reader should see, independent of delivery
// interleaving). Requires c.mu; takes j.mu.
func (fj *fabricJob) syncFailedLocked() {
	var failed []string
	for _, cid := range fj.order {
		if cell := fj.cells[cid]; cell.state == cellFailed {
			failed = append(failed, cell.errText)
		}
	}
	fj.j.mu.Lock()
	fj.j.failed = failed
	fj.j.mu.Unlock()
}

// syncIntegrityLocked mirrors the audit counters into the job so
// /sweep/{id} renders them. Requires c.mu; takes j.mu.
func (fj *fabricJob) syncIntegrityLocked() {
	fj.j.mu.Lock()
	fj.j.auditsRun = fj.auditsRun
	fj.j.auditsDisagreed = fj.auditsDisagreed
	fj.j.auditsResolved = fj.auditsResolved
	fj.j.integrityFailures = fj.integrityFailuresN
	fj.j.mu.Unlock()
}

// maybeAuditLocked samples a freshly settled cell for a re-execution audit
// (DESIGN.md §17). The sample is a deterministic hash of (sweep, cell)
// against the configured rate, so a replayed chaos schedule audits the
// same cells every run. Only live settlements come through here — cells
// restored from a journal replay were (by induction) already audited or
// sampled out in their first life. Requires c.mu.
func (c *coordinator) maybeAuditLocked(fj *fabricJob, cell *fabricCell) {
	rate := c.s.cfg.AuditRate
	if rate <= 0 || cell.audit != auditNone || !auditSampled(fj.j.ID, cell.id, rate) {
		return
	}
	cell.audit = auditPending
	cell.auditExcl = []string{cell.winWorker}
	fj.auditsPending++
}

// auditSampled deterministically maps (sweep, cell) to [0,1) and compares
// against rate. FNV-1a, not math/rand: the decision must be a pure function
// of its inputs so chaos replays are bit-identical.
func auditSampled(sweepID, cellID string, rate float64) bool {
	h := uint64(0xcbf29ce484222325)
	for _, b := range []byte(sweepID + "/" + cellID) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return float64(h>>11)/float64(uint64(1)<<53) < rate
}

// handleAuditResult folds one audit re-execution into the cell's audit
// state machine. First audit: digests agree → done; disagree → hold the
// candidate and queue a tie-break on a third worker. Tie-break: whichever
// of winner/candidate the third execution's bytes match loses its producer
// a strike; matching the candidate additionally adopts the candidate bytes
// as the cell's winner (journaled under the higher attempt, so a replay
// supersedes the corrupt record deterministically).
func (c *coordinator) handleAuditResult(w http.ResponseWriter, fj *fabricJob, cell *fabricCell, req *resultRequest) {
	c.mu.Lock()
	if (cell.audit != auditInflight && cell.audit != tiebreakInflight) ||
		cell.auditAttempt != req.Attempt || cell.auditWorker != req.Worker {
		// The audit moved on without this delivery — requeued after the
		// auditor was presumed dead, or already resolved. Ack and drop.
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
		return
	}
	if req.Err != "" {
		// Environmental failure (timeout, bad image cache, ...), not an
		// integrity verdict: revert to pending for another worker.
		cell.audit--
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		return
	}
	dg := exp.DigestStats(req.Stats)
	if cell.audit == auditInflight {
		fj.auditsRun++
		c.s.met.auditsRun.Add(1)
		if dg == cell.winDigest {
			// Independent re-execution reproduced the winner byte for byte.
			cell.audit = auditDone
			fj.auditsPending--
			fj.syncIntegrityLocked()
			c.finishIfSettledLocked(w, fj)
			return
		}
		// Disagreement: neither side is trustworthy yet. Hold the
		// candidate and have a third worker — anti-affine to both — break
		// the tie.
		fj.auditsDisagreed++
		fj.integrityFailuresN++
		c.s.met.auditsDisagreed.Add(1)
		c.s.met.integrityFailures.Add(1)
		cell.candWorker, cell.candFp, cell.candDigest, cell.candStats = req.Worker, exp.StatsFingerprint(req.Stats), dg, req.Stats
		cell.audit = tiebreakPending
		cell.auditExcl = []string{cell.winWorker, req.Worker}
		fj.syncIntegrityLocked()
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		return
	}
	// Tie-break verdict.
	switch dg {
	case cell.winDigest:
		// The winner stands; the disagreeing auditor produced the bad bytes.
		loser := cell.candWorker
		cell.candWorker, cell.candFp, cell.candDigest, cell.candStats = "", 0, "", nil
		cell.audit = auditDone
		fj.auditsPending--
		fj.auditsResolved++
		c.strikeLocked(loser)
		fj.syncIntegrityLocked()
		c.finishIfSettledLocked(w, fj)
		return
	case cell.candDigest:
		// Two independent executions agree against the recorded winner: the
		// original result was corrupt. Adopt the candidate bytes — journal
		// first (outside c.mu), under the tie-break's attempt ordinal so the
		// replay merge supersedes the corrupt record.
		adopt := *req
		c.mu.Unlock()
		if err := fj.appendCell(cell.key, adopt.Stats, adopt.Attempt); err != nil {
			// The journal refused the adopted record; leave the audit
			// in flight and make the worker redeliver. auditsPending > 0
			// keeps the sweep (and its journal) open meanwhile.
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("journal: %v", err)})
			return
		}
		c.mu.Lock()
		if cell.audit != tiebreakInflight || cell.auditAttempt != adopt.Attempt || cell.auditWorker != adopt.Worker {
			// The audit moved on while we journaled. The appended record is
			// digest-verified candidate bytes, so at worst the re-run
			// tie-break adopts them again; nothing to undo.
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
			return
		}
		loser := cell.winWorker
		cell.winAttempt, cell.winFp = adopt.Attempt, exp.StatsFingerprint(adopt.Stats)
		cell.winWorker, cell.winDigest = adopt.Worker, dg
		cell.candWorker, cell.candFp, cell.candDigest, cell.candStats = "", 0, "", nil
		cell.audit = auditDone
		fj.auditsPending--
		fj.auditsResolved++
		fj.j.mu.Lock()
		fj.j.results[keyString(cell.key)] = adopt.Stats
		fj.j.digests[keyString(cell.key)] = dg
		fj.j.mu.Unlock()
		c.strikeLocked(loser)
		fj.syncIntegrityLocked()
		c.finishIfSettledLocked(w, fj)
		return
	default:
		// Matches neither: two independent corruptions in play. Exclude
		// this worker too and re-run the tie-break; no strike, because the
		// evidence does not say who is lying yet.
		cell.auditExcl = append(cell.auditExcl, req.Worker)
		cell.audit = tiebreakPending
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		return
	}
}

// finishIfSettledLocked is the audit paths' common epilogue: check the
// finish condition, release c.mu, finish the job if this verdict was the
// last thing holding it open, and ack the delivery. Takes ownership of
// c.mu (locked on entry, released on return).
func (c *coordinator) finishIfSettledLocked(w http.ResponseWriter, fj *fabricJob) {
	finished := fj.settledLocked()
	if finished {
		fj.finished = true
	}
	c.mu.Unlock()
	if finished {
		c.finishJob(fj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// rejectCorrupt handles a delivery whose body failed the digest gate: the
// bytes changed between the worker's engine and this coordinator. The
// record never touches a journal; the producing assignment is dropped
// (requeueing the cell when that leaves it unclaimed, or reverting the
// audit to pending), and the sender takes an integrity strike.
func (c *coordinator) rejectCorrupt(req *resultRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.met.integrityFailures.Add(1)
	if fj := c.jobs[req.SweepID]; fj != nil && !fj.finished {
		fj.integrityFailuresN++
		if cell := fj.cells[req.Cell]; cell != nil {
			if req.Audit {
				if (cell.audit == auditInflight || cell.audit == tiebreakInflight) &&
					cell.auditAttempt == req.Attempt && cell.auditWorker == req.Worker {
					cell.audit--
				}
			} else {
				c.dropProducerLocked(fj, cell, req.Worker, req.Attempt)
			}
		}
		fj.syncIntegrityLocked()
	}
	c.strikeLocked(req.Worker)
}

// dropProducerLocked removes the assignment that produced a rejected
// delivery, requeueing the cell if no other assignee is racing it.
// Requires c.mu.
func (c *coordinator) dropProducerLocked(fj *fabricJob, cell *fabricCell, worker string, attempt int) {
	n := cell.assignees[:0]
	for _, a := range cell.assignees {
		if !(a.worker == worker && a.attempt == attempt) {
			n = append(n, a)
		}
	}
	cell.assignees = n
	if cell.state == cellInflight && len(cell.assignees) == 0 {
		cell.state = cellPending
		fj.pendingN++
		c.s.met.cellsRequeued.Add(1)
	}
}

// finishJob records the terminal state exactly like a single-node
// finishSweep: done (quarantined failures included), journaled as settled
// in the request journal, journals closed.
func (c *coordinator) finishJob(fj *fabricJob) {
	fj.j.mu.Lock()
	fj.j.state = jobDone
	fj.j.done = fj.doneN
	failedCount := len(fj.j.failed)
	fj.j.mu.Unlock()
	c.s.met.jobsDone.Add(1)
	c.s.appendRequest(journalRecord{Op: "done", ID: fj.j.ID, OK: failedCount == 0})
	fj.closeJournals()
}

// closeJournals closes both journals. An append racing the finish then
// fails instead of reopening a journal for a settled sweep.
func (fj *fabricJob) closeJournals() {
	if fj.cellJournal != nil {
		fj.cellJournal.Close()
	}
	if fj.assignJournal != nil {
		fj.assignJournal.Close()
	}
}

// appendCell journals one result. Returns nil when no journal is
// configured.
func (fj *fabricJob) appendCell(k exp.Key, s *stats.Run, attempt int) error {
	if fj.cellJournal == nil {
		return nil
	}
	return fj.cellJournal.AppendCell(k, s, attempt)
}

// cellIDPattern guards the snapshot PUT path segment: exp.CellID is 16 hex
// digits, and nothing else may name a file in the snapshot store.
var cellIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// maxSnapshotBody bounds a shipped snapshot (engine memory image plus
// tables): large enough for any simulated machine this repo builds, small
// enough to stop a runaway request.
const maxSnapshotBody int64 = 256 << 20

// handleSnapshotPut receives one shipped cell snapshot as raw encoded
// bytes. The blob is validated (magic, version, CRCs) before it touches
// the store — snapshot.Store — so a blob torn in transit is rejected with
// 400 and the previously shipped good snapshot, if any, survives.
func (c *coordinator) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	cellID := r.PathValue("cell")
	if !cellIDPattern.MatchString(cellID) {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad cell id"})
		return
	}
	// Snapshots carry the engine's full memory image, so the JSON body cap
	// is far too small for them; they get their own ceiling.
	limit := c.s.cfg.MaxBody
	if limit < maxSnapshotBody {
		limit = maxSnapshotBody
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if _, err := snapshot.Store(c.s.cfg.disk(), filepath.Join(c.snapDir, cellID+".snap"), data); err != nil {
		// Corrupt ship bodies (CRC tear, bitrot at source) strike the
		// shipping worker. A transit tear can strike an innocent sender,
		// which is acceptable: quarantine only revokes the lease, and an
		// honest worker re-registers and continues.
		if shipper := r.Header.Get("X-Fgpsim-Worker"); shipper != "" {
			c.s.met.integrityFailures.Add(1)
			c.mu.Lock()
			c.strikeLocked(shipper)
			c.mu.Unlock()
		}
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	c.s.met.snapshotsShipped.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// shutdown stops the liveness watchdog and closes the journals of
// unfinished jobs, marking them interrupted; their accept records stand,
// so the next boot rebuilds them from the journals and the still-running
// workers' late results settle in.
func (c *coordinator) shutdown() {
	c.wd.shutdown()
	c.mu.Lock()
	var open []*fabricJob
	for _, id := range c.jobOrder {
		if fj := c.jobs[id]; !fj.finished {
			open = append(open, fj)
		}
	}
	c.mu.Unlock()
	for _, fj := range open {
		fj.j.mu.Lock()
		fj.j.state = jobInterrupted
		fj.j.errText = "interrupted by drain; resumes on restart"
		fj.j.mu.Unlock()
		fj.closeJournals()
	}
}
