// Package server turns the one-shot simulation harness into a long-lived
// service: an HTTP daemon (cmd/simd) that accepts simulation and sweep
// requests, runs them through the existing exp.Prepared/exp.GridContext
// pipeline, and is built to stay up under the failure modes a
// production-scale deployment actually meets — overload (bounded admission
// queue with explicit 429 shedding), runaway requests (per-request
// deadlines propagated into core.RunContext), wedged engines (a
// cycle-progress watchdog that kills runs whose heartbeat counter stops,
// with a typed *StuckRunError), corrupt cells (the sweep harness's panic
// quarantine and retries), process death (an fsync'd JSON-lines request
// journal from which unfinished sweeps resume on restart), and deploys
// (graceful drain on SIGTERM: stop admitting, finish or journal in-flight
// work, exit 0). See DESIGN.md §11.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// errDraining is the cancellation cause used when a drain deadline forces
// in-flight work to stop.
var errDraining = errors.New("server: draining")

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer"; there is no standard code for it.
const statusClientClosedRequest = 499

// Config sizes the daemon's robustness machinery. Zero values select the
// documented defaults.
type Config struct {
	// QueueDepth bounds requests admitted but not yet executing; beyond it
	// the server sheds with 429 (default 64).
	QueueDepth int
	// Concurrency is the weighted limiter's capacity in worker units
	// (default GOMAXPROCS). A /run costs 1; a sweep costs its cell count,
	// clamped to the capacity — its cells run on that many workers.
	Concurrency int
	// DefaultTimeout applies to /run requests that name no timeout;
	// MaxTimeout caps what they may ask for (defaults 2m / 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// WatchdogInterval is the heartbeat sampling period (default 1s);
	// WatchdogStall is how long a counter may sit still before the run is
	// killed as stuck (default 30s).
	WatchdogInterval time.Duration
	WatchdogStall    time.Duration
	// JournalDir, when non-empty, holds the fsync'd request journal, the
	// per-sweep cell journals, and the cell snapshot directory; unfinished
	// sweeps found there are resumed on Start. Empty disables persistence
	// (drains then lose interrupted sweeps).
	JournalDir string
	// MaxBody caps request bodies (default 8 MiB).
	MaxBody int64
	// CheckpointEvery, when positive and JournalDir is set, arms durable
	// mid-run checkpoints for sweep cells: every N simulated cycles each
	// cell parks a snapshot under JournalDir/snapshots, so an interrupted
	// sweep (drain, crash, preemption) resumes mid-cell instead of
	// re-simulating from cycle 0.
	CheckpointEvery int64
	// PreemptAfter, when positive and checkpoints are armed, upgrades the
	// watchdog from kill-only to preempt-and-requeue: a sweep that is still
	// making progress but has held the limiter longer than this while other
	// work is queued is asked to stop at its next checkpoint boundary, its
	// cells snapshot themselves, and the job is requeued behind the waiting
	// work. Stalled (non-beating) runs are still killed, never requeued.
	PreemptAfter time.Duration
	// Coordinator switches the server into fabric-coordinator mode: sweeps
	// are sharded across registered workers (POST /fabric/*) instead of
	// simulated in-process. /run still simulates locally. See DESIGN.md §15.
	Coordinator bool
	// WorkerDeadAfter is how long a registered worker's request counter may
	// sit still before the liveness watchdog declares it dead and requeues
	// its cells (default 10s, coordinator only).
	WorkerDeadAfter time.Duration
	// StealAfter is how stale an in-flight assignment must be before an
	// idle worker may duplicate it (default 5s, coordinator only).
	StealAfter time.Duration
	// AuditRate is the fraction of completed fabric cells re-executed on a
	// different worker and byte-compared against the recorded winner
	// (DESIGN.md §17). 0 disables audits (the production default until
	// opted in); the sample is a deterministic hash of (sweep, cell).
	AuditRate float64
	// QuarantineStrikes is how many integrity strikes (digest mismatches,
	// lost audits, corrupt snapshot ships) quarantine a worker's lease
	// (default 3, coordinator only).
	QuarantineStrikes int
	// ScrubInterval, when positive and JournalDir is set, arms the
	// background scrubber: a low-priority loop re-verifying on-disk cell
	// journals and snapshots, repairing snapshots from their .prev copies
	// and quarantining what cannot be repaired. 0 disables.
	ScrubInterval time.Duration
	// Disk, when non-nil, is the filesystem every journal and snapshot
	// operation goes through (nil = the real one). The chaos harness
	// substitutes a fault-injecting chaos.FS here; production never sets it.
	Disk chaos.Disk
}

// disk resolves Config.Disk to the real filesystem when unset.
func (c Config) disk() chaos.Disk {
	if c.Disk != nil {
		return c.Disk
	}
	return chaos.OS{}
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = time.Second
	}
	if c.WatchdogStall <= 0 {
		c.WatchdogStall = 30 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.WorkerDeadAfter <= 0 {
		c.WorkerDeadAfter = 10 * time.Second
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 5 * time.Second
	}
	if c.QuarantineStrikes <= 0 {
		c.QuarantineStrikes = 3
	}
	return c
}

// Server is the simulation service.
type Server struct {
	cfg   Config
	admit *admission
	wd    *watchdog
	met   *metrics
	prep  *prepCache
	coord *coordinator // non-nil in coordinator mode

	// reqJournal is nil when persistence is off.
	reqJournal *exp.Journal

	// baseCtx parents every sweep (and force-cancels /run work on drain
	// timeout); baseStop cancels it with errDraining.
	baseCtx  context.Context
	baseStop context.CancelCauseFunc

	draining  atomic.Bool
	drainOnce sync.Once
	inflight  atomic.Int64
	wg        sync.WaitGroup

	// scrubStop ends the background scrubber (scrub.go); nil when the
	// scrubber is disarmed.
	scrubStop chan struct{}

	mu        sync.Mutex
	jobs      map[string]*job
	seq       int64
	recovered []journalRecord
}

// New builds a server and, when persistence is configured, replays the
// request journal to find sweeps a previous process accepted but never
// settled. Call Start to begin background work (watchdog, resumed sweeps).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		admit: newAdmission(cfg.QueueDepth, cfg.Concurrency),
		wd:    newWatchdog(cfg.WatchdogInterval, cfg.WatchdogStall),
		met:   &metrics{},
		prep:  newPrepCache(),
		jobs:  make(map[string]*job),
	}
	s.baseCtx, s.baseStop = context.WithCancelCause(context.Background())
	if cfg.Coordinator {
		coord, err := newCoordinator(s)
		if err != nil {
			return nil, fmt.Errorf("server: coordinator: %w", err)
		}
		s.coord = coord
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, err
		}
		if cfg.CheckpointEvery > 0 {
			if err := os.MkdirAll(s.snapshotDir(), 0o755); err != nil {
				return nil, err
			}
		}
		path := s.requestJournalPath()
		recs, err := pendingJobs(cfg.disk(), path)
		if err != nil {
			return nil, fmt.Errorf("server: request journal: %w", err)
		}
		s.recovered = recs
		s.reqJournal, err = exp.OpenJournal(cfg.disk(), path)
		if err != nil {
			return nil, fmt.Errorf("server: request journal: %w", err)
		}
	}
	return s, nil
}

func (s *Server) requestJournalPath() string {
	return filepath.Join(s.cfg.JournalDir, "requests.journal")
}

func (s *Server) cellJournalPath(id string) string {
	if s.cfg.JournalDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.JournalDir, "sweep-"+id+".cells")
}

// snapshotDir is where sweep cells park mid-run snapshots. It is shared
// across jobs: cell snapshot files are named by a hash of the full cell
// key and guarded by a run fingerprint, so an unrelated job can never
// resume from them, while a re-submitted identical sweep can.
func (s *Server) snapshotDir() string {
	return filepath.Join(s.cfg.JournalDir, "snapshots")
}

// checkpointsArmed reports whether sweep cells run with durable
// checkpoints.
func (s *Server) checkpointsArmed() bool {
	return s.cfg.CheckpointEvery > 0 && s.cfg.JournalDir != ""
}

// Start launches the watchdog and re-enqueues journal-recovered sweeps.
// Recovered sweeps bypass the shed bound — they were admitted by a
// previous process and the journal's whole point is not to drop them —
// but they share the limiter with new work, so a restart under load
// degrades gracefully instead of stampeding.
func (s *Server) Start() {
	s.wd.start()
	if s.coord != nil {
		s.coord.wd.start()
	}
	if s.cfg.ScrubInterval > 0 && s.cfg.JournalDir != "" {
		s.scrubStop = make(chan struct{})
		s.wg.Add(1)
		go s.scrubLoop()
	}
	for _, rec := range s.recovered {
		j := newJob(rec.ID, *rec.Spec)
		s.addJob(j)
		s.met.jobsResumed.Add(1)
		if s.coord != nil {
			// Rebuild the fabric job from its cell and assignment journals:
			// completed cells are restored, unfinished ones requeue, and the
			// attempt high-water mark keeps merging deterministic against
			// late results from workers that never noticed the crash.
			if err := s.coord.start(j, true); err != nil {
				j.mu.Lock()
				j.state = jobFailed
				j.errText = err.Error()
				j.mu.Unlock()
			}
			continue
		}
		t := s.admit.reserveForced()
		s.wg.Add(1)
		go s.runSweep(j, t)
	}
	s.recovered = nil
}

// Drain gracefully shuts the server down: stop admitting (readyz flips to
// 503, new work is rejected), let in-flight work finish, and if ctx
// expires first force-cancel what remains — sweeps have journaled every
// completed cell, so nothing settled is lost and the interrupted sweeps
// resume on the next boot. Always returns nil after the journal is closed,
// so a drain-triggered exit is exit 0 by construction. Idempotent: extra
// calls (a second SIGTERM) wait for the first drain and return nil.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() {
		if s.scrubStop != nil {
			close(s.scrubStop)
		}
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.baseStop(errDraining)
			<-done
		}
		s.wd.shutdown()
		if s.coord != nil {
			s.coord.shutdown()
		}
		if s.reqJournal != nil {
			s.reqJournal.Close()
		}
	})
	return nil
}

// appendRequest appends one record to the request journal (which repairs
// a failed fsync itself). Returns nil when persistence is off.
func (s *Server) appendRequest(rec journalRecord) error {
	if s.reqJournal == nil {
		return nil
	}
	return s.reqJournal.Append(rec)
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /sweep/{id}", s.handleSweepStatus)
	if s.coord != nil {
		s.coord.routes(mux)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	live := 0
	if s.coord != nil {
		live = s.coord.workersLive()
	}
	writeJSON(w, http.StatusOK, s.met.snapshot(s.admit.queued(), int(s.inflight.Load()), live))
}

// decodeBody decodes a JSON request body under the size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) shed(w http.ResponseWriter, oe *OverloadError) {
	s.met.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter.Seconds())))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":       "overloaded",
		"detail":      oe.Error(),
		"retry_after": oe.RetryAfter.Seconds(),
	})
}

// ---------- POST /run ----------

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "draining"})
		return
	}
	var req RunRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	timeout, err := s.runTimeout(req.Timeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if (req.Bench == "") == (req.Source == "") {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "exactly one of bench or source is required"})
		return
	}

	t, rerr := s.admit.reserve()
	if rerr != nil {
		var oe *OverloadError
		if errors.As(rerr, &oe) {
			s.shed(w, oe)
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": rerr.Error()})
		return
	}
	release, err := t.acquire(r.Context(), 1)
	if err != nil {
		// The client gave up while queued.
		writeJSON(w, statusClientClosedRequest, map[string]any{"error": "client closed request while queued"})
		return
	}
	defer release()
	s.wg.Add(1)
	defer s.wg.Done()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	p, err := s.prepareRun(&req)
	if err != nil {
		s.met.runsFailed.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("run-%d", s.seq)
	s.mu.Unlock()

	start := time.Now()
	st, ctx, err := s.execute(r.Context(), id, p, cfg, timeout)
	elapsed := time.Since(start)
	s.met.latency.Observe(elapsed)
	if err != nil {
		s.met.runsFailed.Add(1)
		status, kind := s.classifyRunError(ctx, err)
		writeJSON(w, status, map[string]any{"error": kind, "detail": err.Error()})
		return
	}
	s.met.runsOK.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"key":        keyString(exp.KeyOf(p.Bench.Name, cfg)),
		"elapsed_us": elapsed.Microseconds(),
		"stats":      st,
	})
}

func (s *Server) runTimeout(raw string) (time.Duration, error) {
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout: %w", err)
	}
	if d <= 0 || d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout, nil
	}
	return d, nil
}

func (s *Server) prepareRun(req *RunRequest) (*exp.Prepared, error) {
	if req.Bench != "" {
		return s.prep.prepareBench(req.Bench)
	}
	return s.prep.prepareSource(req.Source, req.In0, req.In1)
}

// execute runs one simulation under the full robustness surface: request
// deadline, drain force-cancel, and the stuck-run watchdog. It returns the
// context it ran under so callers can classify a cancellation by cause.
func (s *Server) execute(parent context.Context, id string, p *exp.Prepared, cfg machine.Config, timeout time.Duration) (*stats.Run, context.Context, error) {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	// Propagate a drain force-cancel into this (client-derived) context.
	stopAfter := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stopAfter()
	runCtx := ctx
	if timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}
	var beat atomic.Int64
	unwatch := s.wd.watch(&watchItem{id: id, beat: &beat, cancel: cancel})
	defer unwatch()
	st, err := p.RunContext(runCtx, cfg, core.Limits{Heartbeat: &beat})
	return st, runCtx, err
}

// classifyRunError maps a failed run to an HTTP status: the typed timeout,
// cancel, and stuck outcomes each get a distinct code.
func (s *Server) classifyRunError(ctx context.Context, err error) (int, string) {
	var canceled *core.CanceledError
	if !errors.As(err, &canceled) {
		return http.StatusInternalServerError, "simulation failed"
	}
	cause := context.Cause(ctx)
	var stuck *StuckRunError
	switch {
	case errors.As(cause, &stuck):
		s.met.watchdogKills.Add(1)
		return http.StatusInternalServerError, "stuck run killed by watchdog"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded"
	case errors.Is(cause, errDraining):
		return http.StatusServiceUnavailable, "draining"
	default:
		return statusClientClosedRequest, "canceled"
	}
}

// ---------- POST /sweep, GET /sweep/{id} ----------

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "draining"})
		return
	}
	var spec SweepSpec
	if err := s.decodeBody(w, r, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if err := spec.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	// A coordinator does not simulate in-process, so fabric sweeps skip the
	// compute limiter: admission pressure lives on the workers.
	var t *ticket
	if s.coord == nil {
		var rerr error
		t, rerr = s.admit.reserve()
		if rerr != nil {
			var oe *OverloadError
			if errors.As(rerr, &oe) {
				s.shed(w, oe)
				return
			}
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": rerr.Error()})
			return
		}
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%x-%d", time.Now().UnixNano(), s.seq)
	s.mu.Unlock()
	// Journal the acceptance before acknowledging it: once the client has
	// a 202 the sweep must survive a crash.
	if err := s.appendRequest(journalRecord{Op: "accept", ID: id, Spec: &spec, SpecHash: specHash(&spec)}); err != nil {
		if t != nil {
			t.abandon()
		}
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("journal: %v", err)})
		return
	}
	j := newJob(id, spec)
	s.addJob(j)
	s.met.jobsAccepted.Add(1)
	if s.coord != nil {
		if err := s.coord.start(j, false); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
	} else {
		s.wg.Add(1)
		go s.runSweep(j, t)
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "cells": spec.cells()})
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown sweep id"})
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) addJob(j *job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
}

func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runSweep executes one accepted sweep in the background: wait for limiter
// weight, resolve the spec, and drive exp.GridContext with journaling,
// retries, quarantine, and the shared heartbeat. Terminal states are
// journaled as done; a drain interruption is deliberately NOT, so the next
// boot resumes the sweep from its cell journal.
func (s *Server) runSweep(j *job, t *ticket) {
	defer s.wg.Done()
	weight := j.Spec.cells()
	release, err := t.acquire(s.baseCtx, weight)
	if err != nil {
		j.setState(jobInterrupted)
		return
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.setState(jobRunning)

	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	it := &watchItem{id: j.ID, beat: &j.beat, cancel: cancel}
	if s.checkpointsArmed() && s.cfg.PreemptAfter > 0 {
		it.preempt, it.preemptAfter, it.queued = &j.preempt, s.cfg.PreemptAfter, s.admit.queued
	}
	unwatch := s.wd.watch(it)
	defer unwatch()

	prepared, cfgs, err := s.resolveSweep(j.Spec)
	if err != nil {
		s.finishSweep(j, jobFailed, err)
		return
	}

	var cellTimeout time.Duration
	if j.Spec.Timeout != "" {
		cellTimeout, _ = time.ParseDuration(j.Spec.Timeout) // validated at accept
	}
	opts := exp.GridOptions{
		Workers:    s.admit.lim.clamp(weight),
		Retries:    j.Spec.Retries,
		RunTimeout: cellTimeout,
		Disk:       s.cfg.Disk,
		Journal:    s.cellJournalPath(j.ID),
		Limits:     core.Limits{Heartbeat: &j.beat},
		Progress:   j.setProgress,
		Observer: func(o exp.CellOutcome) {
			if o.Preempted {
				s.met.preempts.Add(1)
				return
			}
			s.met.observeCell(o.Attempts, o.Err == nil, o.Restored)
			if !o.Restored && o.Err == nil {
				s.met.latency.Observe(o.Duration)
			}
			if o.Err != nil {
				j.recordFailure(o.Err)
			}
		},
	}
	if s.checkpointsArmed() {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.SnapshotDir = s.snapshotDir()
		opts.Preempt = &j.preempt
	}
	res, err := exp.GridContext(ctx, prepared, cfgs, opts)
	j.mu.Lock()
	for k, st := range res.Runs {
		j.results[keyString(k)] = st
	}
	j.mu.Unlock()

	switch {
	case err == nil:
		s.finishSweep(j, jobDone, nil)
	case isCellError(err):
		// Quarantined cell failures: the sweep itself is settled.
		s.finishSweep(j, jobDone, nil)
	case isPreempted(err):
		if s.draining.Load() {
			// Preempted into a drain: leave the accept record standing so the
			// next boot resumes the sweep from its snapshots and cell journal.
			j.mu.Lock()
			j.state = jobInterrupted
			j.errText = "interrupted by drain; resumes on restart"
			j.mu.Unlock()
			return
		}
		// Requeue behind the work that triggered the preemption. The flag is
		// cleared first — the rerun starts a fresh watchdog registration with
		// its own PreemptAfter grace, so a just-resumed job is not instantly
		// re-preempted by the still-set flag.
		j.preempt.Store(false)
		j.mu.Lock()
		j.state = jobQueued
		j.requeues++
		j.mu.Unlock()
		s.met.jobsRequeued.Add(1)
		s.wg.Add(1)
		go s.runSweep(j, s.admit.reserveForced())
	default:
		cause := context.Cause(ctx)
		var stuck *StuckRunError
		if errors.As(cause, &stuck) {
			s.met.watchdogKills.Add(1)
			// A stuck sweep is settled (journaled done), not resumed: a
			// deterministic wedge would otherwise kill-loop every boot.
			s.finishSweep(j, jobStuck, stuck)
			return
		}
		// Drain or base shutdown: leave the journal's accept record
		// standing so the sweep resumes on the next boot.
		j.mu.Lock()
		j.state = jobInterrupted
		j.errText = "interrupted by drain; resumes on restart"
		j.mu.Unlock()
	}
}

func isCellError(err error) bool {
	var ce *exp.CellError
	return errors.As(err, &ce)
}

func isPreempted(err error) bool {
	var pe *exp.SweepPreemptedError
	return errors.As(err, &pe)
}

// finishSweep records a terminal state in the job and the request journal.
func (s *Server) finishSweep(j *job, state string, err error) {
	j.mu.Lock()
	j.state = state
	if err != nil {
		j.errText = err.Error()
	}
	failedCount := len(j.failed)
	j.mu.Unlock()
	s.met.jobsDone.Add(1)
	rec := journalRecord{Op: "done", ID: j.ID, OK: state == jobDone && failedCount == 0}
	if err != nil {
		rec.Err = err.Error()
	}
	s.appendRequest(rec)
}

// resolveSweep prepares the spec's programs and materializes its configs.
func (s *Server) resolveSweep(spec SweepSpec) ([]*exp.Prepared, []machine.Config, error) {
	var prepared []*exp.Prepared
	if spec.Source != "" {
		p, err := s.prep.prepareSource(spec.Source, spec.In0, spec.In1)
		if err != nil {
			return nil, nil, err
		}
		prepared = append(prepared, p)
	}
	for _, name := range spec.Benches {
		p, err := s.prep.prepareBench(name)
		if err != nil {
			return nil, nil, err
		}
		prepared = append(prepared, p)
	}
	cfgs := make([]machine.Config, len(spec.Configs))
	for i, cs := range spec.Configs {
		cfg, err := cs.Config()
		if err != nil {
			return nil, nil, err
		}
		cfgs[i] = cfg
	}
	return prepared, cfgs, nil
}
