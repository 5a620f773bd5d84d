package exp

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/snapshot"
	"fgpsim/internal/stats"
)

// CellError is the final, typed failure of one grid cell after retries.
// The cell is quarantined: the sweep keeps running, the cell's key simply
// has no entry in Results.Runs, and the error is recorded in
// Results.Failed.
type CellError struct {
	Key      Key
	Attempts int
	Panicked bool
	Err      error
}

func (e *CellError) Error() string {
	verb := "failed"
	if e.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("exp: cell %s %s/%s issue %d mem %c %s after %d attempt(s): %v",
		e.Key.Bench, e.Key.Disc, e.Key.Branch, e.Key.Issue, e.Key.Mem, verb, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// GridOptions harden a sweep beyond the plain Grid entry point.
type GridOptions struct {
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each completed cell
	// (including cells restored from the journal).
	Progress func(done, total int)
	// Retries is how many additional attempts a failed cell gets. Panics
	// and canceled/timed-out runs are never retried (they are
	// deterministic); other failures back off exponentially between
	// attempts.
	Retries int
	// BackoffBase is the first retry delay, doubling per attempt up to one
	// second (default 10ms).
	BackoffBase time.Duration
	// RunTimeout bounds each cell's simulation wall-clock (0 = none); an
	// expired cell fails with a *core.CanceledError inside its CellError.
	RunTimeout time.Duration
	// Journal, when non-empty, names a JSON-lines file of completed cells.
	// Cells found there are restored instead of re-run (resuming a killed
	// sweep), and every newly completed cell is appended and fsync'd, so
	// the journal is crash-consistent: a completed cell survives a kill -9
	// and a torn final line is ignored on the next read (journal.go).
	Journal string
	// Limits is passed to every run (cycle caps, fault hooks, pipe logs,
	// progress heartbeats).
	Limits core.Limits
	// Observer, when non-nil, is called once per finally-settled cell —
	// success, quarantined failure, or journal restore — with its outcome.
	// It runs on worker goroutines and must be safe for concurrent use.
	Observer func(CellOutcome)
	// CheckpointEvery, with SnapshotDir, arms durable mid-run checkpoints:
	// each cell drains to a quiescent boundary every N cycles and writes an
	// atomic snapshot file under SnapshotDir, and a restarted sweep resumes
	// each unfinished cell from its newest snapshot instead of from cycle 0
	// (falling back to a fresh run when the snapshot's fingerprint does not
	// match the cell's image and inputs). Fill-unit cells run unarmed: their
	// run-time image mutation makes snapshots unsupported. Snapshots are
	// removed as their cells complete.
	CheckpointEvery int64
	SnapshotDir     string
	// SnapshotSink, when non-nil and checkpoints are armed, receives the
	// encoded bytes of every durable cell snapshot right after it is
	// written locally — each mid-run checkpoint and each preempt park. It
	// is how a fabric worker ships its progress off-box: a peer resuming
	// the cell after this process is kill -9ed needs the snapshot to exist
	// somewhere the coordinator can reach. Runs on worker goroutines; must
	// be safe for concurrent use. Failures to ship are the sink's problem
	// (shipping is an optimization — the cell is still correct re-run from
	// scratch).
	SnapshotSink func(k Key, encoded []byte)
	// Preempt, when non-nil and set true, asks every armed in-flight cell to
	// stop at its next quiescent boundary. Preempted cells write a final
	// snapshot, are not journaled or quarantined, and the sweep returns a
	// *SweepPreemptedError so the caller can requeue it; the snapshots make
	// the requeued sweep cheap.
	Preempt *atomic.Bool
	// Disk, when non-nil, is the filesystem every journal and snapshot
	// operation of this sweep goes through (nil = the real one). The chaos
	// harness substitutes a fault-injecting chaos.FS here.
	Disk chaos.Disk
}

// CellOutcome is one settled grid cell, as reported to GridOptions.Observer.
type CellOutcome struct {
	Key       Key
	Attempts  int           // simulation attempts (0 for restored cells)
	Duration  time.Duration // wall clock across all attempts (0 when restored)
	Restored  bool          // satisfied from the journal instead of re-run
	Preempted bool          // snapshotted and surrendered, not settled
	Err       *CellError    // nil on success
	Stats     *stats.Run    // the settled result (nil when failed or preempted)
}

// SweepPreemptedError reports a sweep that stopped because Preempt was set:
// the named cells were snapshotted (when their configuration supports it)
// and left unjournaled, so re-running the same sweep picks them up from
// their snapshots. It is a cooperative-scheduling verdict, not a failure.
type SweepPreemptedError struct {
	Cells int // cells preempted mid-run
}

func (e *SweepPreemptedError) Error() string {
	return fmt.Sprintf("exp: sweep preempted with %d cell(s) in flight", e.Cells)
}

// GridContext runs the configurations for every prepared benchmark under
// the given options. Failed cells are quarantined, not fatal: the returned
// Results holds every successful cell plus the per-cell errors, and the
// returned error is the failed cell with the lowest job index (identical
// across runs regardless of worker interleaving or retries) — or nil when
// every cell succeeded. Cancellation of ctx stops dispatch and aborts
// in-flight runs.
func GridContext(ctx context.Context, prepared []*Prepared, cfgs []machine.Config, opts GridOptions) (*Results, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		p   *Prepared
		cfg machine.Config
		key Key
		idx int
	}
	jobs := make([]job, 0, len(prepared)*len(cfgs))
	for _, p := range prepared {
		for _, cfg := range cfgs {
			jobs = append(jobs, job{p, cfg, KeyOf(p.Bench.Name, cfg), len(jobs)})
		}
	}
	res := &Results{Runs: make(map[Key]*stats.Run, len(jobs))}
	total := len(jobs)
	var done atomic.Int64

	disk := opts.Disk
	if disk == nil {
		disk = chaos.OS{}
	}
	pending := jobs
	var jw *Journal
	if opts.Journal != "" {
		spec := SpecHash(prepared, cfgs)
		specFound, err := CheckJournalSpec(disk, opts.Journal, spec)
		if err != nil {
			return res, err // *StaleJournalError, or the file is unreadable
		}
		prior, err := MergeJournals(disk, nil, opts.Journal)
		if err != nil {
			return res, fmt.Errorf("exp: journal %s: %w", opts.Journal, err)
		}
		pending = jobs[:0]
		for _, j := range jobs {
			if rec, ok := prior[j.key]; ok {
				s := rec.Stats
				res.Runs[j.key] = s
				if opts.Observer != nil {
					opts.Observer(CellOutcome{Key: j.key, Restored: true, Stats: s})
				}
				if opts.Progress != nil {
					opts.Progress(int(done.Add(1)), total)
				}
				continue
			}
			pending = append(pending, j)
		}
		jw, err = OpenJournal(disk, opts.Journal)
		if err != nil {
			return res, fmt.Errorf("exp: journal %s: %w", opts.Journal, err)
		}
		defer jw.Close()
		if !specFound {
			if err := jw.WriteSpec(spec); err != nil {
				return res, fmt.Errorf("exp: journal %s: %w", opts.Journal, err)
			}
		}
	}

	var (
		wg        sync.WaitGroup
		errMu     sync.Mutex
		first     *CellError
		firstIdx  int
		preempted atomic.Int64
	)
	ch := make(chan job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				start := time.Now()
				s, attempts, wasPreempted, cerr := runCellRetrying(ctx, j.p, j.cfg, j.key, opts)
				if wasPreempted {
					// The cell surrendered its slot at a quiescent boundary and
					// parked its progress in a snapshot; it is not settled, so
					// it is neither journaled nor quarantined.
					preempted.Add(1)
					if opts.Observer != nil {
						opts.Observer(CellOutcome{Key: j.key, Attempts: attempts, Duration: time.Since(start), Preempted: true})
					}
					continue
				}
				if cerr != nil {
					res.fail(cerr)
					if opts.Observer != nil {
						opts.Observer(CellOutcome{Key: j.key, Attempts: attempts, Duration: time.Since(start), Err: cerr})
					}
					// Keep the error of the lowest job index, so a sweep
					// with several failures reports the same one no matter
					// how the workers interleave or which attempts retried.
					errMu.Lock()
					if first == nil || j.idx < firstIdx {
						first, firstIdx = cerr, j.idx
					}
					errMu.Unlock()
					continue
				}
				if s == nil {
					continue // sweep torn down mid-run: not a cell verdict
				}
				res.put(j.key, s)
				if jw != nil {
					jw.appendResult(journalEntry{Key: j.key, Stats: s})
				}
				if opts.Observer != nil {
					opts.Observer(CellOutcome{Key: j.key, Attempts: attempts, Duration: time.Since(start), Stats: s})
				}
				if opts.Progress != nil {
					opts.Progress(int(done.Add(1)), total)
				}
			}
		}()
	}
dispatch:
	for _, j := range pending {
		select {
		case ch <- j:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	if first != nil {
		return res, first
	}
	if cerr := ctx.Err(); cerr != nil {
		return res, fmt.Errorf("exp: sweep canceled: %w", cerr)
	}
	if n := preempted.Load(); n > 0 {
		return res, &SweepPreemptedError{Cells: int(n)}
	}
	return res, nil
}

// runCellRetrying runs one cell with the retry policy, returning the
// attempt count alongside the verdict. It returns (nil, n, false, nil)
// only when the surrounding sweep is being canceled; preempted reports a
// cell that surrendered mid-run (never retried — the preempt flag would
// still be set).
func runCellRetrying(ctx context.Context, p *Prepared, cfg machine.Config, key Key, opts GridOptions) (*stats.Run, int, bool, *CellError) {
	backoff := opts.BackoffBase
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	const maxBackoff = time.Second
	attempts := 0
	for {
		attempts++
		s, panicked, preempted, err := runCellOnce(ctx, p, cfg, key, opts)
		if preempted {
			return nil, attempts, true, nil
		}
		if err == nil {
			return s, attempts, false, nil
		}
		if ctx.Err() != nil {
			return nil, attempts, false, nil
		}
		var canceled *core.CanceledError
		retryable := !panicked && !errors.As(err, &canceled)
		if !retryable || attempts > opts.Retries {
			return nil, attempts, false, &CellError{Key: key, Attempts: attempts, Panicked: panicked, Err: err}
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, attempts, false, nil
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// runCellOnce runs one simulation attempt, converting a panic anywhere in
// the engine stack into an error so a corrupt cell cannot take down the
// whole sweep process. With checkpoints armed it resumes the cell from its
// newest matching snapshot, checkpoints it as it runs, and removes the
// snapshot once the cell completes; a preempted run parks its final state
// in the snapshot and reports preempted=true.
func runCellOnce(ctx context.Context, p *Prepared, cfg machine.Config, key Key, opts GridOptions) (s *stats.Run, panicked, preempted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, panicked, preempted = nil, true, false
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.RunTimeout)
		defer cancel()
	}
	lim := opts.Limits
	lim.Preempt = opts.Preempt
	disk := opts.Disk
	if disk == nil {
		disk = chaos.OS{}
	}

	// The fill unit mutates its image at run time, so its cells cannot be
	// snapshotted (core returns CheckpointUnsupportedError); they run
	// unarmed, and a preempted fill-unit run simply starts over later.
	armed := opts.CheckpointEvery > 0 && opts.SnapshotDir != "" && cfg.Branch != machine.FillUnit
	if !armed {
		s, err = p.RunContext(ctx, cfg, lim)
	} else {
		var img *loader.Image
		var deg int64
		img, deg, err = p.ResolveImage(cfg)
		if err != nil {
			return nil, false, false, err
		}
		fp := snapshot.RunFingerprint(img, p.In0, p.In1, p.Hints)
		snapPath := CellSnapshotPath(opts.SnapshotDir, key)
		if prior, rerr := snapshot.ReadLatest(disk, snapPath); rerr == nil && prior.Fingerprint == fp && prior.Engine != nil {
			lim.Resume = prior.Engine // stale fingerprints fall through to a fresh run
		}
		lim.CheckpointEvery = opts.CheckpointEvery
		save := snapshot.Saver(disk, snapPath, fp, nil)
		// Checkpoint persistence is best-effort by design: a snapshot is an
		// optimization (resume progress), and a full disk or failed fsync
		// under it must cost at most that progress — never the run. core
		// aborts the run on a Checkpoint hook error, so disk failures are
		// absorbed here; the atomic WriteFile rotation guarantees the prior
		// good snapshot survives a failed save.
		lim.Checkpoint = func(st *core.EngineState) error {
			if serr := save(st); serr != nil {
				return nil
			}
			if opts.SnapshotSink != nil {
				opts.SnapshotSink(key, snapshot.Encode(&snapshot.Snapshot{Fingerprint: fp, Engine: st}))
			}
			return nil
		}
		s, err = p.runImage(ctx, img, cfg, deg, lim)
		if err != nil && lim.Resume != nil {
			// A snapshot that matched the fingerprint but failed restore
			// validation is corrupt beyond its CRCs; drop it and run fresh
			// rather than failing the cell on every retry.
			var re *core.ResumeError
			if errors.As(err, &re) {
				snapshot.Remove(disk, snapPath)
				lim.Resume = nil
				s, err = p.runImage(ctx, img, cfg, deg, lim)
			}
		}
		var pe *core.PreemptedError
		if err != nil && errors.As(err, &pe) {
			if pe.State != nil {
				// Best effort: if the park fails the progress is lost, but the
				// requeued cell still runs correctly from scratch.
				parked := &snapshot.Snapshot{Fingerprint: fp, Engine: pe.State}
				if werr := snapshot.WriteFile(disk, snapPath, parked); werr == nil && opts.SnapshotSink != nil {
					opts.SnapshotSink(key, snapshot.Encode(parked))
				}
			}
			return nil, false, true, nil
		}
		if err == nil {
			snapshot.Remove(disk, snapPath)
		}
		return s, false, false, err
	}
	var pe *core.PreemptedError
	if err != nil && errors.As(err, &pe) {
		return nil, false, true, nil
	}
	return s, false, false, err
}

// CellID is the canonical identity of one grid cell: a hex FNV-1a hash
// over every Key field. It names the cell's snapshot file, and the fabric
// uses it as the wire identity a coordinator and its workers agree on
// without shipping the full Key.
func CellID(k Key) string {
	h := specFNV(0xcbf29ce484222325)
	h.str(k.Bench)
	h.u64(uint64(k.Disc))
	h.u64(uint64(int64(k.Issue)))
	h.byte(k.Mem)
	h.u64(uint64(k.Branch))
	h.u64(uint64(int64(k.Window)))
	h.byte(byte(k.Pred))
	return fmt.Sprintf("%016x", uint64(h))
}

// CellSnapshotPath names the snapshot file of one grid cell, so each sweep
// dimension parks in its own file and a restarted sweep over the same spec
// finds it again.
func CellSnapshotPath(dir string, k Key) string {
	return filepath.Join(dir, CellID(k)+".snap")
}

// The JSON-lines journal lives in journal.go (exported: Journal,
// ReplayJournal, MergeJournals) so internal/server can reuse it.
