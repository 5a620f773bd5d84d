// Package server turns the one-shot simulation harness into a long-lived
// service: an HTTP daemon (cmd/simd) that accepts simulation and sweep
// requests, runs them through the existing exp.Prepared/exp.GridContext
// pipeline, and is built to stay up under the failure modes a
// production-scale deployment actually meets — overload (bounded admission
// queue and sweep backlog with explicit 429 shedding), runaway requests
// (per-request deadlines propagated into core.RunContext), wedged engines
// (a cycle-progress watchdog that kills runs whose heartbeat counter
// stops, with a typed *StuckRunError), corrupt cells (the sweep harness's
// panic quarantine and retries), process death (fsync'd JSON-lines
// request, cell and assignment journals from which unfinished sweeps
// resume on restart), and deploys (graceful drain on SIGTERM: stop
// admitting, finish or journal in-flight work, exit 0). Every sweep runs
// one way: through the coordinator (coordinator.go), cell by cell, on an
// in-process worker or on remote ones. See DESIGN.md §11 and §15.
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
	// QueueDepth bounds /run requests admitted but not yet executing, and
	// separately the sweeps accepted but not yet finished; beyond either
	// bound the server sheds with 429 (default 64).
	QueueDepth int
	// Concurrency is the limiter's slot count (default GOMAXPROCS). Each
	// /run and each sweep cell running on the in-process worker holds one
	// slot.
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
	// per-sweep cell and assignment journals, and the snapshot directories;
	// unfinished sweeps found there are resumed on Start. Empty disables
	// persistence (drains then lose interrupted sweeps) and keeps shipped
	// snapshots in a temp dir removed on Drain.
	JournalDir string
	// MaxBody caps request bodies (default 8 MiB).
	MaxBody int64
	// CheckpointEvery, when positive and JournalDir is set, arms durable
	// mid-run checkpoints for sweep cells: every N simulated cycles each
	// cell parks a snapshot — the in-process worker's under
	// JournalDir/snapshots, a remote worker's shipped on to the
	// coordinator's JournalDir/fabric-snapshots — so an interrupted sweep
	// (drain, crash, worker death) resumes mid-cell instead of
	// re-simulating from cycle 0.
	CheckpointEvery int64
	// Coordinator makes the server coordinator only: sweeps are sharded
	// across registered remote workers (POST /fabric/*, public only in this
	// role) and no in-process worker runs. /run still simulates locally.
	// See DESIGN.md §15.
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
	coord *coordinator

	// local is the in-process worker (nil with Config.Coordinator); it
	// reaches the coordinator through fabric, a mux holding only the
	// /fabric/* routes. stopLocal ends its Run.
	local     *Worker
	fabric    *http.ServeMux
	stopLocal context.CancelFunc

	// reqJournal is nil when persistence is off.
	reqJournal *exp.Journal
	// tmpDir ("" with JournalDir set) holds the snapshot directories of a
	// journal-less server; Drain removes it.
	tmpDir string

	// baseCtx parents the in-process worker's cells (and force-cancels
	// them and /run work on drain timeout); baseStop cancels it with
	// errDraining.
	baseCtx  context.Context
	baseStop context.CancelCauseFunc

	draining  atomic.Bool
	drainOnce sync.Once
	wg        sync.WaitGroup

	// scrubStop ends the background scrubber (scrub.go); nil when the
	// scrubber is disarmed.
	scrubStop chan struct{}

	mu        sync.Mutex
	jobs      map[string]*job
	seq       int64
	recovered []journalRecord
}

// New builds a server — its coordinator and, unless Config.Coordinator is
// set, its in-process worker — and, when persistence is configured,
// replays the request journal to find sweeps a previous process accepted
// but never settled. Call Start to begin background work (watchdogs, the
// worker, resumed sweeps).
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
	dir := cfg.JournalDir
	if dir == "" {
		var err error
		if s.tmpDir, err = os.MkdirTemp("", "fgpsim-simd-"); err != nil {
			return nil, err
		}
		dir = s.tmpDir
	}
	coord, err := newCoordinator(s, filepath.Join(dir, "fabric-snapshots"))
	if err != nil {
		os.RemoveAll(s.tmpDir)
		return nil, fmt.Errorf("server: coordinator: %w", err)
	}
	s.coord = coord
	s.fabric = http.NewServeMux()
	coord.routes(s.fabric)
	if !cfg.Coordinator {
		if s.local, err = s.newLocalWorker(filepath.Join(dir, "snapshots")); err != nil {
			os.RemoveAll(s.tmpDir)
			return nil, fmt.Errorf("server: in-process worker: %w", err)
		}
	}
	if cfg.JournalDir != "" {
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

// snapshotDir is where the in-process worker's cells park mid-run
// snapshots. It is shared across jobs: cell snapshot files are named by a
// hash of the full cell key and guarded by a run fingerprint, so an
// unrelated job can never resume from them, while a re-submitted identical
// sweep can.
func (s *Server) snapshotDir() string {
	return filepath.Join(s.cfg.JournalDir, "snapshots")
}

// checkpointsArmed reports whether sweep cells run with durable
// checkpoints.
func (s *Server) checkpointsArmed() bool {
	return s.cfg.CheckpointEvery > 0 && s.cfg.JournalDir != ""
}

// Start launches the watchdogs and the in-process worker, and hands
// journal-recovered sweeps back to the coordinator. Recovered sweeps bypass
// the shed bound — they were admitted by a previous process and the
// journal's whole point is not to drop them — but their cells share the
// limiter with new work, so a restart under load degrades gracefully
// instead of stampeding.
func (s *Server) Start() {
	s.wd.start()
	s.coord.wd.start()
	if s.cfg.ScrubInterval > 0 && s.cfg.JournalDir != "" {
		s.scrubStop = make(chan struct{})
		s.wg.Add(1)
		go s.scrubLoop()
	}
	if s.local != nil {
		ctx, stop := context.WithCancel(context.Background())
		s.stopLocal = stop
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.local.Run(ctx)
		}()
	}
	for _, rec := range s.recovered {
		j := newJob(rec.ID, *rec.Spec)
		s.addJob(j)
		s.met.jobsResumed.Add(1)
		// Rebuild the job from its cell and assignment journals: completed
		// cells are restored, unfinished ones requeue, and the attempt
		// high-water mark keeps merging deterministic against late results
		// from workers that never noticed the crash.
		s.startSweep(j, true)
	}
	s.recovered = nil
}

// startSweep hands an accepted sweep to the coordinator, failing the job
// if its journals cannot be opened.
func (s *Server) startSweep(j *job, recovered bool) error {
	err := s.coord.start(j, recovered)
	if err != nil {
		j.mu.Lock()
		j.state = jobFailed
		j.errText = err.Error()
		j.mu.Unlock()
	}
	return err
}

// Drain gracefully shuts the server down: stop admitting (readyz flips to
// 503, new work is rejected), stop the in-process worker polling, let
// in-flight work finish, and if ctx expires first force-cancel what
// remains — every settled cell is already journaled, so nothing settled is
// lost and the interrupted sweeps resume on the next boot. Always returns
// nil after the journals are closed, so a drain-triggered exit is exit 0
// by construction. Idempotent: extra calls (a second SIGTERM) wait for the
// first drain and return nil.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() {
		if s.scrubStop != nil {
			close(s.scrubStop)
		}
		if s.stopLocal != nil {
			s.stopLocal()
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
		s.coord.shutdown()
		if s.reqJournal != nil {
			s.reqJournal.Close()
		}
		os.RemoveAll(s.tmpDir)
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

// Handler returns the service's HTTP surface. The /fabric/* worker
// protocol is part of it only in the coordinator role; a single node's
// in-process worker reaches it privately.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /sweep/{id}", s.handleSweepStatus)
	if s.cfg.Coordinator {
		mux.Handle("/fabric/", s.fabric)
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
	writeJSON(w, http.StatusOK, s.met.snapshot(s.admit.queued(), s.admit.lim.inUse(), s.coord.workersLive(), s.wd.kills.Load()))
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
	release, err := t.acquire(r.Context())
	if err != nil {
		// The client gave up while queued.
		writeJSON(w, statusClientClosedRequest, map[string]any{"error": "client closed request while queued"})
		return
	}
	defer release()
	s.wg.Add(1)
	defer s.wg.Done()

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

// handleSweep accepts a sweep: validate it, shed it when QueueDepth sweeps
// are already unfinished, journal the acceptance, and hand it to the
// coordinator, which runs its cells on whichever workers poll.
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
	if n := s.coord.unfinished(); n >= s.cfg.QueueDepth {
		s.shed(w, &OverloadError{Backlog: n, RetryAfter: time.Second})
		return
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%x-%d", time.Now().UnixNano(), s.seq)
	s.mu.Unlock()
	// Journal the acceptance before acknowledging it: once the client has
	// a 202 the sweep must survive a crash.
	if err := s.appendRequest(journalRecord{Op: "accept", ID: id, Spec: &spec, SpecHash: specHash(&spec)}); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("journal: %v", err)})
		return
	}
	j := newJob(id, spec)
	s.addJob(j)
	s.met.jobsAccepted.Add(1)
	if err := s.startSweep(j, false); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
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
