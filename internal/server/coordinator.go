package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"time"

	"fgpsim/internal/exp"
	"fgpsim/internal/snapshot"
)

// coordinator is the fabric's scheduling brain; every Server has one, and
// every sweep runs through it. It owns the worker registry (registry.go),
// the consistent-hash ring over image-cache keys that shards cells to
// workers, and every accepted sweep (sweep.go). One mutex guards all of
// it; the fsync'd cell journals are appended outside the lock, in whatever
// order the handlers race — the deterministic (attempt, digest) merge
// order makes file order immaterial. Assignments are not journaled: a
// resumed sweep's attempts start at its boot's crash epoch (epochBase).
type coordinator struct {
	s       *Server
	wd      *watchdog // worker-liveness watchdog (beats = authenticated requests)
	snapDir string    // shipped-snapshot store, keyed by cell id

	mu       sync.Mutex
	workers  map[string]*workerEnt
	leaseSeq uint64
	ring     *exp.Ring
	sweeps   map[string]*sweep // every sweep this process accepted or resumed
	open     []*sweep          // unfinished sweeps, in acceptance order
	// kick is closed (and replaced) whenever new work may be pickable — a
	// sweep starts, a cell requeues, an audit opens — releasing held polls.
	kick chan struct{}
}

// pollHold is how long an empty poll is held open waiting for work before
// it answers empty; the worker then polls again at once.
const pollHold = 200 * time.Millisecond

// newCoordinator builds the coordinator, keeping shipped snapshots in
// snapDir.
func newCoordinator(s *Server, snapDir string) (*coordinator, error) {
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	interval := s.cfg.WorkerDeadAfter / 4
	return &coordinator{
		s:       s,
		wd:      newWatchdog(interval, s.cfg.WorkerDeadAfter),
		snapDir: snapDir,
		workers: make(map[string]*workerEnt),
		ring:    exp.NewRing(),
		sweeps:  make(map[string]*sweep),
		kick:    make(chan struct{}),
	}, nil
}

// wakeLocked releases every held poll to look for work again. Requires c.mu.
func (c *coordinator) wakeLocked() {
	close(c.kick)
	c.kick = make(chan struct{})
}

// unfinished counts accepted sweeps that have not settled (the /sweep shed
// bound).
func (c *coordinator) unfinished() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

// status renders GET /sweep/{id}.
func (c *coordinator) status(id string) (jobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.sweeps[id]
	if sw == nil {
		return jobStatus{}, false
	}
	return sw.status(), true
}

func (c *coordinator) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /fabric/register", c.handleRegister)
	mux.HandleFunc("POST /fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fabric/poll", c.handlePoll)
	mux.HandleFunc("POST /fabric/result", c.handleResult)
	mux.HandleFunc("POST /fabric/deregister", c.handleDeregister)
	mux.HandleFunc("PUT /fabric/snapshot/{cell}", c.handleSnapshotPut)
}

// start takes ownership of an accepted sweep: enumerate its cells, replay
// any prior cell journal (a coordinator crash or drain left the sweep
// unfinished; a fresh sweep's journal replays to nothing), and queue the
// rest for the workers, handing out attempts above base — 0 for a sweep
// accepted now, the boot's epochBase for a resumed one. It returns the
// sweep's cell count. A sweep whose journal will not open is kept, in
// state failed.
func (c *coordinator) start(id string, spec SweepSpec, base int) (cells int, err error) {
	sw, err := newSweep(id, spec, c.s.cfg.AuditRate, c.s.cfg.StealAfter)
	if err != nil {
		return 0, err
	}
	if err = c.replayJournal(sw, base); err != nil {
		sw.state, sw.errText = jobFailed, err.Error()
	}
	c.mu.Lock()
	c.sweeps[id] = sw
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.open = append(c.open, sw)
	if sw.pendingN > 0 {
		c.wakeLocked()
	}
	finished := c.finishLocked(sw)
	c.mu.Unlock()
	if finished {
		// Every cell was already journaled (crash after the last result,
		// before the done record).
		c.finishSweep(sw)
	}
	return len(sw.order), nil
}

// replayJournal replays sw's cell journal into it, with attempts starting
// at base, and opens the journal for appending. The journal is read under
// strict digest verification: a bitrotted or torn record is rejected
// (counted, logged) and its cell simply requeues — corruption on disk
// never becomes a served result. A sweep directory of the previous format
// also holds a sweep-<id>.assign journal; it is ignored, since every
// attempt it records lies below the epoch base.
func (c *coordinator) replayJournal(sw *sweep, base int) error {
	if c.s.cfg.JournalDir == "" {
		return nil // nothing resumes without a journal: base is 0
	}
	disk := c.s.cfg.disk()
	cellPath := c.s.cellJournalPath(sw.id)
	winners, err := exp.MergeJournals(disk, func(ie *exp.IntegrityError) {
		c.s.met.integrityFailures.Add(1)
		fmt.Fprintf(os.Stderr, "server: fabric journal: %v\n", ie)
	}, cellPath)
	if err != nil {
		return fmt.Errorf("server: fabric journal %s: %w", cellPath, err)
	}
	c.s.met.cellsRestored.Add(int64(sw.replay(winners, base)))
	if sw.cellJournal, err = exp.OpenJournal(disk, cellPath); err != nil {
		return fmt.Errorf("server: fabric journal %s: %w", cellPath, err)
	}
	return nil
}

// finishLocked marks a settled sweep finished and drops it from the poll
// order, reporting whether the caller must now run finishSweep (outside
// c.mu). Requires c.mu.
func (c *coordinator) finishLocked(sw *sweep) bool {
	if !sw.finish() {
		return false
	}
	c.open = slices.DeleteFunc(c.open, func(o *sweep) bool { return o == sw })
	return true
}

// applyLocked applies the rest of a transition's outcome: count requeues,
// wake held polls, strike a worker. Requires c.mu.
func (c *coordinator) applyLocked(out outcome) {
	c.s.met.cellsRequeued.Add(int64(out.requeued))
	if out.wake {
		c.wakeLocked()
	}
	if out.strike != "" {
		c.strikeLocked(out.strike)
	}
}

// handlePoll hands a worker up to Max cells from the first unfinished
// sweep that has any for it (sweep.pick). When there is nothing to hand out
// the poll is held for up to pollHold, answering as soon as new work
// appears, so an idle worker learns of a sweep, a requeue or an audit
// without sleeping between polls.
func (c *coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	hold := time.NewTimer(pollHold)
	defer hold.Stop()
	var sw *sweep
	var picked []cellAssignment
	for {
		c.mu.Lock()
		ent := c.workers[req.Worker]
		if ent == nil || ent.lease != req.Lease {
			c.mu.Unlock()
			writeJSON(w, http.StatusGone, map[string]any{"error": "stale lease; re-register"})
			return
		}
		ent.beat.Add(1)
		now := time.Now()
		for _, o := range c.open {
			var stolen int
			picked, stolen = o.pick(req.Worker, req.Lease, max(req.Max, 1), now, c.ring)
			c.s.met.cellsStolen.Add(int64(stolen))
			if len(picked) > 0 {
				sw = o
				break
			}
		}
		if sw != nil {
			break
		}
		kick := c.kick
		c.mu.Unlock()
		select {
		case <-kick:
			continue
		case <-hold.C:
		case <-r.Context().Done():
		}
		writeJSON(w, http.StatusOK, pollResponse{})
		return
	}
	c.mu.Unlock()
	resp := pollResponse{
		SweepID: sw.id,
		Source:  sw.spec.Source,
		In0:     sw.spec.In0,
		In1:     sw.spec.In1,
		Retries: sw.spec.Retries,
		Timeout: sw.spec.Timeout,
		Cells:   picked,
	}
	if c.s.checkpointsArmed() { // workers ship only at an armed cadence
		resp.CheckpointEvery = c.s.cfg.CheckpointEvery
		// Attach shipped snapshots so a requeued cell resumes mid-run. Disk
		// IO deliberately happens outside the coordinator lock. Audits never
		// get a snapshot: re-execution must be independent of the bytes it
		// audits.
		disk := c.s.cfg.disk()
		for i := range resp.Cells {
			path := filepath.Join(c.snapDir, resp.Cells[i].Cell+".snap")
			if !resp.Cells[i].Audit && snapshot.Exists(disk, path) {
				if data, _, err := snapshot.LoadShippable(disk, path); err == nil {
					resp.Cells[i].Snapshot = data
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResult folds one delivery into its cell (sweep.deliver). A
// delivery the sweep says to journal is appended — fsync'd, outside c.mu —
// and folded (sweep.journaled) before the 200, so a result the worker saw
// acknowledged is durable, and a coordinator crash replays the journal to
// the winner the live path picked. A refused append answers 500 and
// settles nothing, and the sweep hands the assignment out again; the
// worker retries all the same. Torn bodies (a connection cut
// mid-POST) fail JSON decoding and change nothing; the worker retries the
// POST whole.
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
	d := delivery{result: result{worker: req.Worker, attempt: req.Attempt, stats: req.Stats}, err: req.Err, audit: req.Audit}
	if req.Stats != nil {
		// Digest gate: recompute the content digest over the stats as
		// decoded and compare against the one the worker computed at run
		// time. A mismatch means the payload changed between the worker's
		// engine and this handler — corruption in flight or at source — so
		// the record is rejected before it can touch the journal. An empty
		// digest is a legacy/disarmed worker: trusted as before. The digest
		// is the result's identity from here on.
		d.digest = exp.DigestStats(req.Stats)
		if req.Digest != "" && d.digest != req.Digest {
			c.rejectCorrupt(&req)
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "integrity: result digest mismatch"})
			return
		}
	}
	c.mu.Lock()
	// Results are accepted from any lease — even a superseded or
	// presumed-dead worker computed the right answer — but only a live
	// lease's beat counter advances.
	if ent := c.workers[req.Worker]; ent != nil && ent.lease == req.Lease {
		ent.beat.Add(1)
	}
	sw := c.sweeps[req.SweepID]
	var cl *cell
	if sw != nil {
		cl = sw.cells[req.Cell]
	}
	if cl == nil || sw.state == jobFailed {
		c.mu.Unlock()
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown sweep or cell"})
		return
	}
	if sw.finished {
		// The sweep settled while this delivery limped in — a straggler
		// duplicate of work that already completed elsewhere. Acknowledge it
		// so the worker stops retrying, and drop it.
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
		return
	}
	before := sw.counts
	out := sw.deliver(cl, d)
	var jerr error
	if out.journal {
		// deliver changed nothing; the sweep cannot finish while the
		// append is in flight.
		if sw.cellJournal != nil {
			c.mu.Unlock()
			jerr = sw.cellJournal.AppendCell(cl.key, d.stats, d.attempt, d.worker)
			c.mu.Lock()
		}
		before = sw.counts
		out = sw.journaled(cl, d, jerr == nil)
	}
	c.s.met.countIntegrity(before, sw.counts)
	if out.settled {
		c.s.met.observeCell(req.Attempts, req.Stats != nil, time.Duration(req.ElapsedUS)*time.Microsecond)
	}
	c.applyLocked(out)
	finished := c.finishLocked(sw)
	c.mu.Unlock()
	if finished {
		c.finishSweep(sw)
	}
	switch {
	case out.late:
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "late": true})
	case jerr != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("journal: %v", jerr)})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	}
}

// rejectCorrupt handles a delivery that failed the digest gate: the
// sender takes an integrity strike and, while its sweep runs, the sweep
// drops the producing assignment (sweep.reject).
func (c *coordinator) rejectCorrupt(req *resultRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := outcome{strike: req.Worker}
	if sw := c.sweeps[req.SweepID]; sw != nil && !sw.finished {
		before := sw.counts
		out = sw.reject(req.Cell, req.Worker, req.Attempt)
		c.s.met.countIntegrity(before, sw.counts)
	} else {
		c.s.met.integrityFailures.Add(1)
	}
	c.applyLocked(out)
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

// finishSweep settles a sweep whose cells have all settled: its shipped
// snapshots — resume hints nobody needs any more — are removed, it is
// journaled as settled in the request journal, its cell journal is closed,
// it is counted, and only then does its status read done (quarantined
// failures included), so a reader that sees done sees it settled on disk
// and in jobs_done.
func (c *coordinator) finishSweep(sw *sweep) {
	if c.s.checkpointsArmed() { // workers ship only at an armed cadence
		for _, id := range sw.order {
			snapshot.Remove(c.s.cfg.disk(), filepath.Join(c.snapDir, id+".snap"))
		}
	}
	c.mu.Lock()
	ok := sw.failedN == 0
	c.mu.Unlock()
	c.s.appendRequest(journalRecord{Op: "done", ID: sw.id, OK: ok})
	closeJournal(sw)
	c.s.met.jobsDone.Add(1)
	c.mu.Lock()
	sw.state = jobDone
	c.mu.Unlock()
}

// closeJournal closes sw's cell journal. An append racing the finish then
// fails instead of reopening a journal for a settled sweep.
func closeJournal(sw *sweep) {
	if sw.cellJournal != nil {
		sw.cellJournal.Close()
	}
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

// shutdown stops the liveness watchdog and closes the cell journals of
// unfinished sweeps, marking them interrupted; their accept records and
// shipped snapshots stand, so the next boot rebuilds them from the
// journals and the still-running workers' late results settle in.
func (c *coordinator) shutdown() {
	c.wd.shutdown()
	c.mu.Lock()
	open := slices.Clone(c.open)
	for _, sw := range open {
		sw.state, sw.errText = jobInterrupted, "interrupted by drain; resumes on restart"
	}
	c.mu.Unlock()
	for _, sw := range open {
		closeJournal(sw)
	}
}
