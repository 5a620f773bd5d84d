package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/snapshot"
	"fgpsim/internal/stats"
)

// Worker is the fabric's execution half: a pull client that registers with
// a coordinator, polls for cell assignments, runs each through the
// exp.GridContext machinery (retries, quarantine, checkpoint cadence — the
// same for every cell wherever it runs, which is why merged results are
// byte-identical however the grid was spread), ships its mid-run
// checkpoints back so a peer can resume its cells if this process dies,
// and posts results until they are acknowledged. It serves no HTTP itself;
// a worker behind a NAT or a partition needs nothing but an outbound
// connection. A single-node Server runs one Worker in process (local.go).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID is the worker's stable identity. Re-registering the same ID after
	// a crash supersedes the dead incarnation immediately instead of
	// waiting out the liveness timeout. Default: hostname-pid.
	ID string
	// Heartbeat is the liveness beacon period (default 1s). It must be
	// comfortably inside the coordinator's WorkerDeadAfter.
	Heartbeat time.Duration
	// Concurrency is how many cells run in parallel (default GOMAXPROCS);
	// it is also the poll batch size.
	Concurrency int
	// SnapshotDir holds local cell checkpoints (default: a temp dir, removed
	// when Run returns).
	SnapshotDir string
	// DrainGrace bounds how long a graceful stop waits for in-flight cells
	// to park at a checkpoint boundary before abandoning them (default 30s).
	DrainGrace time.Duration
	// Abandon, when set, makes Run exit immediately on context
	// cancellation: no preempt, no final result posts, no deregister — the
	// coordinator sees exactly what a kill -9 looks like. Test hook.
	Abandon bool
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client
	// Disk overrides the filesystem the worker's journals and snapshots go
	// through (nil = the real one; the chaos harness substitutes a
	// fault-injecting chaos.FS).
	Disk chaos.Disk
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// OmitDigests suppresses the result content digest, making this worker
	// look like a pre-digest legacy build. Chaos self-test hook: it disarms
	// the fabric's integrity layer so the orchestrator can prove it still
	// catches a planted corruption without it.
	OmitDigests bool
	// Mangle, when set, replaces each successful cell result before the
	// digest is computed — a simulated buggy/lying worker whose corruption
	// is self-consistent (digest matches the corrupt bytes) and therefore
	// detectable only by re-execution audits. Chaos harness hook.
	Mangle func(cell string, s *stats.Run) *stats.Run
}

type Worker struct {
	opts     WorkerOptions
	client   *http.Client
	logf     func(string, ...any)
	snapDir  string
	tmpDir   string // snapDir if NewWorker made it, else ""; removed when Run returns
	auditDir string
	disk     chaos.Disk

	// Each running cell holds one lim slot, and its heartbeat is watched by
	// wd. A remote worker owns prep, lim and wd (Run starts and stops wd),
	// and ships every durable checkpoint to the coordinator so a peer can
	// resume the cell if this process dies. An in-process worker (local)
	// shares its Server's three, so /run and sweep cells draw on one
	// -concurrency budget and one watchdog, and ships nothing: its snapshot
	// dir is on the coordinator's own disk, where the next boot's worker
	// resumes from it. base parents every cell and result delivery: the
	// Server's base context in process (cancelled when a drain runs out of
	// time), context.Background() otherwise.
	prep  *prepCache
	lim   *limiter
	wd    *watchdog
	local bool
	base  context.Context

	lease   atomic.Uint64
	preempt atomic.Bool
	busy    atomic.Int64

	// parked holds encoded snapshots whose ship exhausted its retry budget,
	// keyed by cell id, awaiting a re-ship from the poll loop or the drain.
	parkedMu       sync.Mutex
	parked         map[string][]byte
	reshipInFlight atomic.Bool
}

// NewWorker validates options and builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("server: worker needs a coordinator URL")
	}
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 30 * time.Second
	}
	w := &Worker{
		opts:   opts,
		client: opts.Client,
		logf:   opts.Logf,
		prep:   newPrepCache(),
		lim:    newLimiter(opts.Concurrency),
		wd:     newWatchdog(0, 0),
		base:   context.Background(),
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 10 * time.Second}
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	w.disk = opts.Disk
	if w.disk == nil {
		w.disk = chaos.OS{}
	}
	w.snapDir = opts.SnapshotDir
	if w.snapDir == "" {
		dir, err := os.MkdirTemp("", "fgpsim-worker-")
		if err != nil {
			return nil, err
		}
		w.snapDir, w.tmpDir = dir, dir
	} else if err := os.MkdirAll(w.snapDir, 0o755); err != nil {
		return nil, err
	}
	// Audit re-executions checkpoint in their own directory so they can
	// never resume from a previous run's snapshot of the same cell — an
	// audit that resumed from the bytes it is auditing would prove nothing.
	w.auditDir = filepath.Join(w.snapDir, "audit")
	if err := os.MkdirAll(w.auditDir, 0o755); err != nil {
		return nil, err
	}
	return w, nil
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

// Run is the worker's main loop; it returns nil after a graceful drain
// (ctx canceled: stop polling, ask in-flight cells to park and ship their
// snapshots, post what settled, deregister) and only returns an error when
// it could never join the fabric at all.
//
// The loop polls only while a cell slot is free, and polls again as soon
// as a cell's result is acknowledged; an empty poll is held by the
// coordinator until work appears, so the loop never sleeps on a timer
// while there is work to do.
func (w *Worker) Run(ctx context.Context) error {
	defer os.RemoveAll(w.tmpDir)
	if !w.local {
		w.wd.start()
		defer w.wd.shutdown()
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logf("worker %s: registered (lease %d)", w.opts.ID, w.lease.Load())

	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	go w.heartbeatLoop(hbCtx)

	// Cells run under their own context so a drain can ask them to park
	// (cooperative preempt) instead of tearing them down mid-simulation.
	cellCtx, cancelCells := context.WithCancel(w.base)
	defer cancelCells()
	var cellWG sync.WaitGroup
	// finished carries one token per settled cell to wake a loop that is
	// waiting for a free slot; a stale token costs one extra loop turn.
	finished := make(chan struct{}, 1)

poll:
	for ctx.Err() == nil {
		w.reshipParkedAsync()
		free := w.opts.Concurrency - int(w.busy.Load())
		if free <= 0 {
			select {
			case <-finished:
				continue
			case <-ctx.Done():
				break poll
			}
		}
		var resp pollResponse
		err := w.doJSON(ctx, "POST", "/fabric/poll",
			pollRequest{Worker: w.opts.ID, Lease: w.lease.Load(), Max: free}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				break poll
			}
			w.logf("worker %s: poll: %v", w.opts.ID, err)
			if !sleepCtx(ctx, 500*time.Millisecond) {
				break poll
			}
			continue
		}
		if len(resp.Cells) == 0 {
			// The coordinator held the poll and found nothing; poll again at
			// once unless it asked for a backoff.
			if resp.WaitMS > 0 && !sleepCtx(ctx, time.Duration(resp.WaitMS)*time.Millisecond) {
				break poll
			}
			continue
		}
		for _, cell := range resp.Cells {
			w.busy.Add(1)
			cellWG.Add(1)
			go func(pr pollResponse, a cellAssignment) {
				defer cellWG.Done()
				w.runCell(cellCtx, pr, a)
				w.busy.Add(-1)
				select {
				case finished <- struct{}{}:
				default:
				}
			}(resp, cell)
		}
	}

	if w.opts.Abandon {
		cancelCells()
		return nil
	}
	// Graceful drain: ask armed cells to park at their next checkpoint
	// boundary (shipping the parked snapshot), bound the wait, then go.
	// Cells also end early if base is cancelled (an in-process worker's
	// Server ran out of drain time).
	w.preempt.Store(true)
	done := make(chan struct{})
	go func() { cellWG.Wait(); close(done) }()
	grace := time.NewTimer(w.opts.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		w.logf("worker %s: drain grace expired; abandoning in-flight cells", w.opts.ID)
		cancelCells()
		<-done
	}
	// Last chance for parked snapshots: after this the coordinator requeues
	// our cells, and a successfully re-shipped checkpoint is the difference
	// between the next assignee resuming mid-run and starting over.
	w.reshipParked()
	w.deregister()
	w.logf("worker %s: drained", w.opts.ID)
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			err := w.doJSON(ctx, "POST", "/fabric/heartbeat",
				heartbeatRequest{Worker: w.opts.ID, Lease: w.lease.Load()}, nil)
			if err != nil && ctx.Err() == nil {
				w.logf("worker %s: heartbeat: %v", w.opts.ID, err)
			}
		}
	}
}

// runCell executes one assignment holding one limiter slot, releases the
// slot, and posts the verdict: the stats, or the error of a cell that
// failed its retries, could not be prepared, or wedged. A cell parked by a
// drain or torn down with its context posts nothing; the coordinator
// requeues it.
func (w *Worker) runCell(ctx context.Context, pr pollResponse, a cellAssignment) {
	if w.lim.acquire(ctx) != nil {
		return // torn down while waiting for a slot
	}
	out, err := w.simulate(ctx, pr, a)
	w.lim.release()
	res := resultRequest{Worker: w.opts.ID, SweepID: pr.SweepID, Cell: a.Cell, Attempt: a.Attempt,
		Audit: a.Audit, Attempts: out.Attempts, ElapsedUS: out.Duration.Microseconds()}
	switch {
	case err != nil:
		res.Err = err.Error()
	case out.Preempted:
		// Parked and shipped; the coordinator requeues it when we
		// deregister (or are declared dead).
		return
	case out.Stats != nil:
		res.Stats = out.Stats
		if w.opts.Mangle != nil {
			res.Stats = w.opts.Mangle(a.Cell, res.Stats)
		}
		if !w.opts.OmitDigests {
			res.Digest = exp.DigestStats(res.Stats)
		}
	case out.Err != nil:
		res.Err = out.Err.Error()
	default:
		return
	}
	w.postResult(res)
}

// simulate runs one assignment through the sweep machinery: a 1x1 grid
// with the coordinator's retry, timeout, and checkpoint parameters, the
// worker's shared snapshot dir and preempt flag, a snapshot sink that
// ships every durable checkpoint to the coordinator, and a heartbeat
// watched by the watchdog. A wedged engine is cancelled with a
// *StuckRunError, which is returned as the cell's failure.
func (w *Worker) simulate(ctx context.Context, pr pollResponse, a cellAssignment) (exp.CellOutcome, error) {
	var out exp.CellOutcome
	var p *exp.Prepared
	var name string
	var err error
	if a.Bench != "" {
		name = a.Bench
		p, err = w.prep.prepareBench(a.Bench)
	} else {
		name = sourceName(pr.Source, pr.In0, pr.In1)
		p, err = w.prep.prepareSource(pr.Source, pr.In0, pr.In1)
	}
	if err != nil {
		return out, err
	}
	cfg, err := a.Config.Config()
	if err != nil {
		return out, err
	}
	key := exp.KeyOf(name, cfg)
	if len(a.Snapshot) > 0 && !a.Audit {
		// A previous assignee's shipped progress: store it (re-validated)
		// where the grid's resume path will find it. Audits never resume
		// from someone else's progress — they exist to reproduce it.
		if _, serr := snapshot.Store(w.disk, exp.CellSnapshotPath(w.snapDir, key), a.Snapshot); serr != nil {
			w.logf("worker %s: cell %s: shipped snapshot rejected: %v", w.opts.ID, a.Cell, serr)
		}
	}
	var timeout time.Duration
	if pr.Timeout != "" {
		timeout, _ = time.ParseDuration(pr.Timeout)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var beat atomic.Int64
	unwatch := w.wd.watch(&watchItem{id: keyString(key), beat: &beat, cancel: cancel})
	defer unwatch()
	opts := exp.GridOptions{
		Workers:    1,
		Retries:    pr.Retries,
		RunTimeout: timeout,
		Disk:       w.opts.Disk,
		Limits:     core.Limits{Heartbeat: &beat},
		Observer:   func(o exp.CellOutcome) { out = o },
	}
	if pr.CheckpointEvery > 0 {
		// Audits keep the coordinator's checkpoint cadence — boundary drains
		// alter the engine trajectory, so byte-comparability requires it —
		// but checkpoint into the isolated audit dir and never ship: an
		// audit's progress is nobody's resume hint.
		opts.CheckpointEvery = pr.CheckpointEvery
		opts.SnapshotDir = w.snapDir
		opts.Preempt = &w.preempt
		if a.Audit {
			opts.SnapshotDir = w.auditDir
		} else if !w.local {
			opts.SnapshotSink = func(_ exp.Key, encoded []byte) { w.ship(a.Cell, encoded) }
		}
	}
	_, err = exp.GridContext(ctx, []*exp.Prepared{p}, []machine.Config{cfg}, opts)
	var stuck *StuckRunError
	if out.Stats == nil && out.Err == nil && errors.As(context.Cause(ctx), &stuck) {
		return out, stuck
	}
	if err != nil && out.Stats == nil && out.Err == nil && !out.Preempted && ctx.Err() == nil {
		w.logf("worker %s: cell %s: %v", w.opts.ID, a.Cell, err)
	}
	return out, nil
}

// ShipError is the typed terminal failure of a snapshot ship: the bounded
// retry budget ran out (or the coordinator rejected the blob outright) and
// the snapshot was parked for a later re-ship. Status is the last HTTP
// status seen, 0 when every attempt failed at the transport.
type ShipError struct {
	Cell   string
	Tries  int
	Status int
	Err    error
}

func (e *ShipError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("server: ship %s: gave up after %d tries (last status %d)", e.Cell, e.Tries, e.Status)
	}
	return fmt.Sprintf("server: ship %s: gave up after %d tries: %v", e.Cell, e.Tries, e.Err)
}

func (e *ShipError) Unwrap() error { return e.Err }

// shipMaxTries bounds one ship's delivery attempts; the backoff between
// them doubles from 50ms and caps at 1s, so a full budget costs under two
// seconds of waiting — short enough to run inline from the snapshot sink.
const shipMaxTries = 5

// ship PUTs one encoded snapshot to the coordinator, retrying transient
// failures with capped exponential backoff. A terminal failure returns a
// *ShipError and parks the snapshot so the poll loop (and the drain) can
// re-ship it: a lost checkpoint only costs resume progress, but there is no
// reason to lose one to a coordinator restart that a later retry outlives.
func (w *Worker) ship(cellID string, encoded []byte) error {
	backoff := 50 * time.Millisecond
	var lastErr error
	var lastStatus int
	tries := 0
	for try := 1; try <= shipMaxTries; try++ {
		if try > 1 {
			shipRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		tries = try
		status, err := w.shipOnce(cellID, encoded)
		if err == nil && status == http.StatusOK {
			return nil
		}
		lastErr, lastStatus = err, status
		if status == http.StatusBadRequest {
			// The coordinator rejected the bytes themselves (bad cell id, CRC
			// mismatch from a transit tear): resending the same blob cannot
			// succeed, but the NEXT checkpoint of this cell might, so park.
			break
		}
	}
	serr := &ShipError{Cell: cellID, Tries: tries, Status: lastStatus, Err: lastErr}
	w.park(cellID, encoded)
	w.logf("worker %s: %v (snapshot parked for re-ship)", w.opts.ID, serr)
	return serr
}

func (w *Worker) shipOnce(cellID string, encoded []byte) (int, error) {
	req, err := http.NewRequest("PUT", w.opts.Coordinator+"/fabric/snapshot/"+cellID, bytes.NewReader(encoded))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// Identify the shipper: a snapshot that fails coordinator-side
	// validation (CRC tear, bitrot) earns this worker an integrity strike.
	req.Header.Set("X-Fgpsim-Worker", w.opts.ID)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("server: ship %s: coordinator said %d", cellID, resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// park stows a terminally unshipped snapshot, newest bytes per cell.
func (w *Worker) park(cellID string, encoded []byte) {
	w.parkedMu.Lock()
	if w.parked == nil {
		w.parked = make(map[string][]byte)
	}
	w.parked[cellID] = encoded
	w.parkedMu.Unlock()
}

// reshipParked drains the parked set and runs each snapshot through a full
// ship budget again; ship re-parks whatever still fails. A newer checkpoint
// of the same cell shipped in the meantime overwrites the coordinator's
// copy regardless of order — snapshots are resume hints, and the attempt
// stamps on results keep a stale hint from ever corrupting a winner.
func (w *Worker) reshipParked() {
	w.parkedMu.Lock()
	batch := w.parked
	w.parked = nil
	w.parkedMu.Unlock()
	for cell, encoded := range batch {
		w.ship(cell, encoded)
	}
}

// reshipParkedAsync is the poll loop's entry: one re-ship pass at a time,
// off the loop's goroutine so a slow coordinator cannot stall polling.
func (w *Worker) reshipParkedAsync() {
	w.parkedMu.Lock()
	empty := len(w.parked) == 0
	w.parkedMu.Unlock()
	if empty || !w.reshipInFlight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer w.reshipInFlight.Store(false)
		w.reshipParked()
	}()
}

// postResult delivers one settled cell, retrying with backoff until the
// coordinator acknowledges it (200), rejects it (404 — the sweep finished
// or the coordinator restarted past it; 400 — the digest gate refused it),
// or a bounded retry budget runs out. Delivery runs on the worker's base
// context, not the poll loop's: results must still flow during a graceful
// drain, and stop only when an in-process worker's Server force-cancels.
//
// The request is marshaled exactly once and the same bytes are resent on
// every retry: the embedded digest stays valid across attempts, and a
// duplicate delivery is a true byte-for-byte duplicate. (Results are
// accepted regardless of lease, so there is no per-attempt lease restamp
// to force a re-marshal either.)
func (w *Worker) postResult(res resultRequest) {
	res.Lease = w.lease.Load()
	body, err := json.Marshal(res)
	if err != nil {
		w.logf("worker %s: result %s unmarshalable: %v", w.opts.ID, res.Cell, err)
		return
	}
	backoff := 100 * time.Millisecond
	for tries := 0; tries < 30; tries++ {
		status, err := w.postRaw(w.base, "/fabric/result", body)
		if err == nil && status == http.StatusOK {
			return
		}
		if status == http.StatusNotFound || status == http.StatusBadRequest {
			w.logf("worker %s: result %s dropped: %v", w.opts.ID, res.Cell, err)
			return
		}
		if !sleepCtx(w.base, backoff) {
			return
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
	w.logf("worker %s: result %s undeliverable; giving up", w.opts.ID, res.Cell)
}

// postRaw POSTs pre-marshaled JSON. The caller's bytes are never touched,
// so every retry through it is byte-identical to the first attempt.
func (w *Worker) postRaw(ctx context.Context, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, fmt.Errorf("server: POST %s: %d %s", path, resp.StatusCode, e.Error)
	}
	return resp.StatusCode, nil
}

func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp registerResponse
		err := w.rawJSON(ctx, "POST", "/fabric/register", registerRequest{Worker: w.opts.ID}, &resp, nil)
		if err == nil {
			w.lease.Store(resp.Lease)
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("server: worker %s never registered: %w", w.opts.ID, err)
		}
		if !sleepCtx(ctx, backoff) {
			return fmt.Errorf("server: worker %s never registered: %w", w.opts.ID, err)
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (w *Worker) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.rawJSON(ctx, "POST", "/fabric/deregister",
		heartbeatRequest{Worker: w.opts.ID, Lease: w.lease.Load()}, nil, nil)
}

// doJSON is rawJSON plus the lease-renewal convention: 410 Gone means the
// coordinator (possibly a restarted one) no longer honors our lease, so
// re-register and retry once with the fresh lease.
func (w *Worker) doJSON(ctx context.Context, method, path string, body, out any) error {
	var status int
	err := w.doJSONStatus(ctx, method, path, body, out, &status)
	return err
}

func (w *Worker) doJSONStatus(ctx context.Context, method, path string, body, out any, status *int) error {
	err := w.rawJSON(ctx, method, path, body, out, status)
	if err != nil && *status == http.StatusGone {
		if rerr := w.register(ctx); rerr != nil {
			return rerr
		}
		body = w.restamp(body)
		return w.rawJSON(ctx, method, path, body, out, status)
	}
	return err
}

// restamp rewrites a request's lease after a re-registration.
func (w *Worker) restamp(body any) any {
	lease := w.lease.Load()
	switch b := body.(type) {
	case pollRequest:
		b.Lease = lease
		return b
	case heartbeatRequest:
		b.Lease = lease
		return b
	}
	return body
}

func (w *Worker) rawJSON(ctx context.Context, method, path string, body, out any, status *int) error {
	if status == nil {
		status = new(int)
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, w.opts.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	*status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("server: %s %s: %d %s", method, path, resp.StatusCode, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
