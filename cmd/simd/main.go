// Command simd is the simulation daemon: a long-lived HTTP service in
// front of the experiment harness, for driving large parameter-sweep
// studies without babysitting one-shot CLI runs. It accepts single
// simulations (POST /run) and asynchronous sweeps (POST /sweep, polled via
// GET /sweep/{id}), sheds load with 429 + Retry-After once its admission
// queue or sweep backlog fills, kills wedged runs and sweep cells via a
// cycle-progress watchdog, journals accepted sweeps and every settled cell
// to fsync'd JSON-lines files so a crash or deploy loses nothing settled,
// and drains gracefully on SIGTERM/SIGINT: stop admitting, finish or
// journal in-flight work, exit 0. With checkpoints armed
// (-checkpoint-every) sweep cells additionally park mid-run engine
// snapshots, so even a kill -9 resumes mid-cell rather than from cycle 0.
//
// Every sweep runs through a coordinator that hands its cells to pull
// workers (DESIGN.md §15). By default simd is a single node: the
// coordinator plus one in-process worker running -concurrency cells at a
// time, and /run and sweep cells share those -concurrency slots.
// `-coordinator` makes it coordinator only: no in-process worker, and the
// /fabric/* worker protocol is served publicly for remote workers.
// `-worker URL` makes it a worker: no listen address, no sweeps of its
// own — just a pull client that registers with the coordinator at URL,
// polls for cells, runs them, and posts results until drained.
//
// Usage:
//
//	simd [-addr :8080] [-journal /var/lib/simd]
//	     [-queue 64] [-concurrency 0]
//	     [-default-timeout 2m] [-max-timeout 10m]
//	     [-watchdog-interval 1s] [-watchdog-stall 30s]
//	     [-drain-timeout 30s] [-checkpoint-every 0]
//	     [-coordinator] [-worker-dead-after 10s] [-steal-after 5s]
//	     [-audit-rate 0] [-quarantine-strikes 3] [-scrub-interval 0]
//	simd -worker http://coordinator:8080 [-worker-id NAME] [-heartbeat 1s]
//	     [-concurrency 0] [-drain-timeout 30s]
//
// Endpoints: /healthz, /readyz (503 while draining), /metrics (queue
// depth, shed count, in-flight, watchdog kills, retries, fabric counters,
// p50/p99 run latency), /run, /sweep, /sweep/{id}, and — with
// -coordinator — the /fabric/* worker protocol. See README.md for curl
// examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/server"
)

// options is the daemon's parsed command line, separated from flag
// registration so validation is testable without a process.
type options struct {
	addr            string
	journalDir      string
	queue           int
	concurrency     int
	defTimeout      time.Duration
	maxTimeout      time.Duration
	wdInterval      time.Duration
	wdStall         time.Duration
	drainTimeout    time.Duration
	checkpointEvery int64

	coordinator       bool
	workerDeadAfter   time.Duration
	stealAfter        time.Duration
	auditRate         float64
	quarantineStrikes int
	scrubInterval     time.Duration
	workerURL         string
	workerID          string
	heartbeat         time.Duration

	chaosDisk string
	// disk is the failpoint filesystem -chaos-disk resolved to (nil when
	// the flag is unset), built once during validate. Declared as the
	// interface so an unset flag passes a true nil to Config/WorkerOptions.
	disk chaos.Disk
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.journalDir, "journal", "", "journal directory; accepted sweeps persist and resume across restarts (empty = no persistence)")
	fs.IntVar(&o.queue, "queue", 64, "queued /run requests, and unfinished sweeps, before shedding with 429")
	fs.IntVar(&o.concurrency, "concurrency", 0, "simulations at once, /run and sweep cells together (0 = GOMAXPROCS)")
	fs.DurationVar(&o.defTimeout, "default-timeout", 2*time.Minute, "per-run deadline when the request names none")
	fs.DurationVar(&o.maxTimeout, "max-timeout", 10*time.Minute, "hard cap on requested run deadlines")
	fs.DurationVar(&o.wdInterval, "watchdog-interval", time.Second, "heartbeat sampling period")
	fs.DurationVar(&o.wdStall, "watchdog-stall", 30*time.Second, "kill a run after this long without engine progress")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "grace period for in-flight work on SIGTERM before force-cancel")
	fs.Int64Var(&o.checkpointEvery, "checkpoint-every", 0, "simulated cycles between durable sweep-cell snapshots (0 = off; requires -journal)")
	fs.BoolVar(&o.coordinator, "coordinator", false, "coordinator role: shard sweeps across registered fabric workers instead of running an in-process worker")
	fs.DurationVar(&o.workerDeadAfter, "worker-dead-after", 10*time.Second, "coordinator declares a silent worker dead and requeues its cells after this long")
	fs.DurationVar(&o.stealAfter, "steal-after", 5*time.Second, "idle workers may duplicate an in-flight cell older than this (straggler mitigation)")
	fs.Float64Var(&o.auditRate, "audit-rate", 0, "fraction of completed cells re-executed on a different worker and byte-compared (0 = off; requires -coordinator)")
	fs.IntVar(&o.quarantineStrikes, "quarantine-strikes", 3, "integrity strikes before a worker's lease is quarantined (requires -coordinator)")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 0, "background scrub pass period over on-disk journals and snapshots (0 = off; requires -journal)")
	fs.StringVar(&o.workerURL, "worker", "", "worker role: pull cells from the coordinator at this base URL (exclusive with -coordinator)")
	fs.StringVar(&o.workerID, "worker-id", "", "stable worker identity for re-registration after a crash (default hostname-pid; requires -worker)")
	fs.DurationVar(&o.heartbeat, "heartbeat", time.Second, "worker liveness beacon period; keep well inside -worker-dead-after (requires -worker)")
	fs.StringVar(&o.chaosDisk, "chaos-disk", "", `mount seeded disk failpoints under the journal/snapshot layer; takes a chaos repro token ("seed=N" or "seed=N keep=i,j"). Soak testing only — never in production`)
	return o
}

// validate enforces the cross-flag contracts that the server would
// otherwise only disarm silently.
func (o *options) validate() error {
	if o.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", o.checkpointEvery)
	}
	if o.checkpointEvery > 0 && o.journalDir == "" {
		return fmt.Errorf("-checkpoint-every requires -journal (snapshots live in the journal directory)")
	}
	if o.coordinator && o.workerURL != "" {
		return fmt.Errorf("-coordinator and -worker are exclusive: one process plays one fabric role")
	}
	if o.auditRate < 0 || o.auditRate > 1 {
		return fmt.Errorf("-audit-rate must be in [0, 1], got %g", o.auditRate)
	}
	if o.auditRate > 0 && !o.coordinator {
		return fmt.Errorf("-audit-rate requires -coordinator (audits re-assign cells across fabric workers)")
	}
	if o.quarantineStrikes <= 0 {
		return fmt.Errorf("-quarantine-strikes must be > 0, got %d", o.quarantineStrikes)
	}
	if o.scrubInterval < 0 {
		return fmt.Errorf("-scrub-interval must be >= 0, got %s", o.scrubInterval)
	}
	if o.scrubInterval > 0 && o.journalDir == "" {
		return fmt.Errorf("-scrub-interval requires -journal (the scrubber walks the journal directory)")
	}
	if o.workerURL == "" {
		if o.workerID != "" {
			return fmt.Errorf("-worker-id requires -worker")
		}
	}
	if o.heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be > 0, got %s", o.heartbeat)
	}
	if o.workerDeadAfter <= 0 || o.stealAfter <= 0 {
		return fmt.Errorf("-worker-dead-after and -steal-after must be > 0")
	}
	if o.workerURL != "" && o.checkpointEvery > 0 {
		return fmt.Errorf("-checkpoint-every is a coordinator/standalone flag; workers take their cadence from the coordinator")
	}
	for _, d := range []struct {
		name string
		val  time.Duration
	}{
		{"-default-timeout", o.defTimeout},
		{"-max-timeout", o.maxTimeout},
		{"-watchdog-interval", o.wdInterval},
		{"-watchdog-stall", o.wdStall},
		{"-drain-timeout", o.drainTimeout},
	} {
		if d.val < 0 {
			return fmt.Errorf("%s must be >= 0, got %s", d.name, d.val)
		}
	}
	if o.chaosDisk != "" {
		seed, keep, err := chaos.ParseRepro(o.chaosDisk)
		if err != nil {
			return fmt.Errorf("-chaos-disk: %w", err)
		}
		sched := chaos.Plan(seed, []chaos.Component{{Name: "daemon/disk", Kinds: chaos.DiskKinds()}}, chaos.Profile{})
		sched.Keep = keep
		o.disk = chaos.NewFS(chaos.OS{}, sched, "daemon/disk")
	}
	return nil
}

func (o *options) serverConfig() server.Config {
	cfg := server.Config{
		QueueDepth:        o.queue,
		Concurrency:       o.concurrency,
		DefaultTimeout:    o.defTimeout,
		MaxTimeout:        o.maxTimeout,
		WatchdogInterval:  o.wdInterval,
		WatchdogStall:     o.wdStall,
		JournalDir:        o.journalDir,
		CheckpointEvery:   o.checkpointEvery,
		Coordinator:       o.coordinator,
		WorkerDeadAfter:   o.workerDeadAfter,
		StealAfter:        o.stealAfter,
		AuditRate:         o.auditRate,
		QuarantineStrikes: o.quarantineStrikes,
		ScrubInterval:     o.scrubInterval,
	}
	if o.disk != nil {
		cfg.Disk = o.disk
		fmt.Fprintf(os.Stderr, "simd: CHAOS: disk failpoints armed (%s) — journal and snapshot writes will fail on schedule\n", o.chaosDisk)
	}
	return cfg
}

func main() { os.Exit(realMain(os.Args[1:])) }

// realMain is main with injectable arguments and an exit code instead of
// os.Exit, so the exit-code contract is testable: 2 for a bad command line
// (unknown flag or failed validation), 1 for a runtime failure, 0 for a
// clean drain.
func realMain(args []string) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 2
	}
	runFn := run
	if o.workerURL != "" {
		runFn = runWorker
	}
	if err := runFn(o); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		return 1
	}
	return 0
}

// runWorker is the worker role's main loop: pull cells until SIGTERM, then
// drain (park in-flight cells at a checkpoint boundary, ship the parked
// snapshots, deregister) and exit 0.
func runWorker(o *options) error {
	if o.disk != nil {
		fmt.Fprintf(os.Stderr, "simd: CHAOS: disk failpoints armed (%s) — snapshot writes will fail on schedule\n", o.chaosDisk)
	}
	w, err := server.NewWorker(server.WorkerOptions{
		Coordinator: o.workerURL,
		ID:          o.workerID,
		Heartbeat:   o.heartbeat,
		Concurrency: o.concurrency,
		DrainGrace:  o.drainTimeout,
		Disk:        o.disk,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "simd: worker %s pulling from %s\n", w.ID(), o.workerURL)
	return w.Run(sigCtx)
}

func run(o *options) error {
	srv, err := server.New(o.serverConfig())
	if err != nil {
		return err
	}
	srv.Start()

	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	// Graceful drain: flip unready and reject new work, give in-flight
	// work the grace period, then force-cancel what remains — every
	// completed sweep cell is already fsync'd in the journal, so the
	// interrupted sweeps resume on the next boot. Exit 0 either way.
	fmt.Fprintln(os.Stderr, "simd: signal received, draining")
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Connections outliving the grace period are closed forcibly; the
		// drain below still journals their work.
		httpSrv.Close()
	}
	if err := <-drained; err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "simd: drained cleanly")
	return nil
}
