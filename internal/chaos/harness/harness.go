// Package harness is the chaos orchestrator: it runs full
// coordinator/worker sweeps in-process under seeded chaos fault schedules
// (package chaos) and checks the fabric's end-to-end invariants against a
// fault-free control of the same sweep. A failing schedule is replayable
// from its repro token ("seed=N", chaos.Schedule.Repro) and shrinkable to
// a 1-minimal fault subset ("seed=N keep=i,j"), the same reducer idiom
// difftest.Reduce applies to MiniC programs.
//
// The invariants, in the order they are checked:
//
//  1. recovery terminates — the sweep settles before the deadline, with at
//     most MaxRestarts coordinator crash-restarts to clear a stall (fault
//     plans are finite, so the adversary always drains);
//  2. no quarantined cells — the simulator is deterministic, so pure
//     durability and delivery faults must never turn into cell failures;
//  3. no corrupted result served — every result post the coordinator
//     acknowledged with 200 (tapped via chaos.Transport.Observe, AFTER
//     transit faults mutate the body) carries a content digest that
//     verifies over its stats: an in-transit corruption (chaos.NetCorrupt,
//     in-model since DESIGN.md §17) must be rejected at ingest, never
//     accepted;
//  4. byte identity — the merged results render byte-identically to the
//     fault-free control (this also subsumes split-brain: two lease
//     incarnations disagreeing about a winner cannot both match one
//     control);
//  5. acked never lost — every result post a worker saw acknowledged with
//     200 is present in the final results with the same stats fingerprint
//     (skipped under MangleWorker: a lying worker's acked results are
//     SUPPOSED to be overturned by audits);
//  6. journal-replay equivalence — re-merging the coordinator's cell
//     journal from disk reproduces exactly the results the live run served;
//  7. audited disagreement converges — at settle every audit whose bytes
//     disagreed with the recorded winner has been resolved by a tie-break
//     (audits_disagreed == audits_resolved), so together with invariant 3
//     the served bytes are always the control bytes.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/chaos"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/server"
	"fgpsim/internal/stats"
)

// Options fixes the system-under-test topology. The schedule varies per
// run; the topology must not, or seeds stop being comparable.
type Options struct {
	// Spec is the sweep to run (default: DefaultSpec).
	Spec server.SweepSpec
	// Workers is the fabric size (default 2). Use 1 for bit-exact replay:
	// with a single sequential worker the N-th operation of every fault
	// class is the same operation on every run.
	Workers int
	// Concurrency is each worker's cell parallelism (default 2; use 1 with
	// Workers=1 for bit-exact replay).
	Concurrency int
	// CheckpointEvery is the durable-checkpoint cadence in simulated cycles
	// (default 50_000), which also decides whether snapshot-class net
	// faults have anything to hit.
	CheckpointEvery int64
	// Deadline bounds one whole run (default 120s).
	Deadline time.Duration
	// StallAfter is how long the sweep may sit with no progress before the
	// harness crash-restarts the coordinator (default 5s).
	StallAfter time.Duration
	// MaxRestarts bounds coordinator crash-restarts per run (default 2).
	MaxRestarts int
	// CrashAfterCells, when positive, crash-restarts the coordinator once
	// as soon as that many cells have settled — a process-level fault the
	// Fault vocabulary cannot express, for exercising journal recovery on
	// demand. The restart counts in Report.Restarts but not against
	// MaxRestarts.
	CrashAfterCells int
	// Profile sizes planned schedules (Plan callers only).
	Profile chaos.Profile
	// AuditRate is the coordinator's sampled re-execution audit rate
	// (default 0.25; negative disables — the self-test needs the integrity
	// layer disarmed to seed its deliberate violation).
	AuditRate float64
	// QuarantineStrikes overrides the coordinator's quarantine threshold
	// (0 = server default).
	QuarantineStrikes int
	// ScrubInterval arms the coordinator's background scrubber (0 = off,
	// the default: scrub reads consume disk read-class fault ordinals on a
	// wall-clock timer, which would blur bit-exact replay of read faults).
	ScrubInterval time.Duration
	// OmitDigests makes every worker ship results without content digests,
	// disarming the coordinator's ingest gate. Self-test only.
	OmitDigests bool
	// MangleWorker, when set, is applied to each worker's results before
	// digesting — a simulated lying worker (self-consistent digest, catchable
	// only by re-execution audits). Return the input unchanged for honest
	// workers.
	MangleWorker func(workerID, cellID string, s *stats.Run) *stats.Run
	// ArtifactDir, when set, receives a per-violation directory (named
	// after the repro token) holding the run's journals, snapshots, and a
	// report.json — the bundle CI uploads for offline replay.
	ArtifactDir string
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Spec.Source == "" && len(o.Spec.Benches) == 0 {
		o.Spec = DefaultSpec()
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 50_000
	}
	if o.Deadline <= 0 {
		o.Deadline = 120 * time.Second
	}
	if o.StallAfter <= 0 {
		o.StallAfter = 5 * time.Second
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 2
	}
	if o.AuditRate == 0 {
		o.AuditRate = 0.25
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// DefaultSpec is a small multi-cell sweep: long enough to cross checkpoint
// boundaries, short enough that a several-hundred-schedule CI smoke stays
// in minutes.
func DefaultSpec() server.SweepSpec {
	src := `
int main() {
	int i = 0;
	int acc = 0;
	while (i < 120000) {
		acc = acc + i;
		i = i + 1;
	}
	putc('0' + (acc % 10));
	return 0;
}
`
	var cfgs []server.ConfigSpec
	for _, mem := range []string{"A", "B"} {
		for _, win := range []int{8, 16} {
			cfgs = append(cfgs, server.ConfigSpec{Disc: "dyn4", Issue: 4, Mem: mem, Branch: "single", Window: win})
		}
	}
	// One retry absorbs transient environmental failures (the simulator is
	// deterministic, so a retry can only turn an environmental failure into
	// the same success every other attempt produces).
	return server.SweepSpec{Source: src, In0: "chaos input\n", Configs: cfgs, Retries: 1}
}

// Components enumerates the injectable surfaces of an opts-shaped fabric:
// the coordinator's disk, each worker's disk, and each worker's network
// path. The full chaos.NetKinds set is in play, NetCorrupt included: since
// result digests landed (DESIGN.md §17) payload corruption is inside the
// trust model — the fabric must detect it, strike the sender, and re-serve
// the cell byte-identically.
func Components(workers int) []chaos.Component {
	comps := []chaos.Component{{Name: "coord/disk", Kinds: chaos.DiskKinds()}}
	for i := 0; i < workers; i++ {
		comps = append(comps,
			chaos.Component{Name: fmt.Sprintf("w%d/disk", i), Kinds: chaos.DiskKinds()},
			chaos.Component{Name: fmt.Sprintf("w%d/net", i), Kinds: chaos.NetKinds()},
		)
	}
	return comps
}

// PlanFor expands one seed into a schedule over opts's components.
func PlanFor(opts Options, seed uint64) *chaos.Schedule {
	opts = opts.withDefaults()
	return chaos.Plan(seed, Components(opts.Workers), opts.Profile)
}

// Report is the outcome of one schedule run.
type Report struct {
	Repro    string        `json:"repro"`
	Fired    []chaos.Fired `json:"fired,omitempty"`
	Restarts int           `json:"restarts"`
	// Violation names the first invariant that failed ("" = all held):
	// "recovery-stalled", "cells-quarantined", "corrupt-result-served",
	// "results-differ", "acked-result-lost", "journal-mismatch",
	// "audit-diverged".
	Violation string `json:"violation,omitempty"`
	Detail    string `json:"detail,omitempty"`
	// Results is the canonical results JSON the run settled on (nil when it
	// never settled), the unit replay compares bit-for-bit.
	Results []byte `json:"results,omitempty"`
	// Integrity observability (DESIGN.md §17), sampled at settle. The
	// quarantine count comes from the final coordinator's /metrics, so a
	// crash-restart resets it.
	AuditsRun          int   `json:"audits_run,omitempty"`
	AuditsDisagreed    int   `json:"audits_disagreed,omitempty"`
	AuditsResolved     int   `json:"audits_resolved,omitempty"`
	IntegrityFailures  int   `json:"integrity_failures,omitempty"`
	WorkersQuarantined int64 `json:"workers_quarantined,omitempty"`
}

// control is a cached fault-free reference for one spec: the canonical
// results bytes of a plain exp.GridContext run (runControl).
type control struct {
	once    sync.Once
	results []byte
	err     error
}

var controls sync.Map // canonical spec JSON -> *control

func controlFor(opts Options) ([]byte, error) {
	specJSON, err := json.Marshal(opts.Spec)
	if err != nil {
		return nil, err
	}
	v, _ := controls.LoadOrStore(string(specJSON), &control{})
	c := v.(*control)
	c.once.Do(func() { c.results, c.err = runControl(opts) })
	return c.results, c.err
}

// runControl runs the spec straight through exp.GridContext — no server,
// no coordinator, no faults — at the fabric's checkpoint cadence, and
// returns the canonical results bytes. The control is independent of
// every sweep path the harness checks against it.
func runControl(opts Options) ([]byte, error) {
	dir, err := os.MkdirTemp("", "fgpsim-chaos-control-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := opts.Spec
	var prepared []*exp.Prepared
	for _, name := range spec.Benches {
		b := bench.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		p, err := exp.Prepare(b, enlarge.DefaultOptions())
		if err != nil {
			return nil, err
		}
		prepared = append(prepared, p)
	}
	if spec.Source != "" {
		in0, in1 := []byte(spec.In0), []byte(spec.In1)
		p, err := exp.Prepare(&bench.Benchmark{
			Name:   server.SourceName(spec.Source, spec.In0, spec.In1),
			Source: spec.Source,
			Inputs: func(int) ([]byte, []byte) { return in0, in1 },
		}, enlarge.DefaultOptions())
		if err != nil {
			return nil, err
		}
		prepared = append(prepared, p)
	}
	var cfgs []machine.Config
	for _, cs := range spec.Configs {
		cfg, err := cs.Config()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	res, err := exp.GridContext(context.Background(), prepared, cfgs, exp.GridOptions{
		Retries:         spec.Retries,
		CheckpointEvery: opts.CheckpointEvery,
		SnapshotDir:     dir,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: control sweep: %w", err)
	}
	runs := make(map[string]*stats.Run, len(res.Runs))
	for k, st := range res.Runs {
		runs[server.KeyString(k)] = st
	}
	return canonicalResults(runs)
}

// serveOn starts an http.Server for s on addr ("" = a fresh loopback
// port). The concrete address comes back so a coordinator restart can
// reclaim it — workers hold the URL across the crash.
func serveOn(s *server.Server, addr string) (*http.Server, string, net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// Reclaiming the exact port right after a close can transiently race
	// the kernel; retry briefly.
	for try := 0; try < 50; try++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), ln, nil
}

type sweepStatus struct {
	State   string                `json:"state"`
	Done    int                   `json:"done"`
	Total   int                   `json:"total"`
	Failed  []string              `json:"failed"`
	Error   string                `json:"error"`
	Results map[string]*stats.Run `json:"results"`

	AuditsRun         int `json:"audits_run"`
	AuditsDisagreed   int `json:"audits_disagreed"`
	AuditsResolved    int `json:"audits_resolved"`
	IntegrityFailures int `json:"integrity_failures"`
}

// submitSweep POSTs the spec, retrying briefly: an injected coordinator
// disk fault can 500 the accept, and the accept is the harness's control
// plane, not the system under test.
func submitSweep(baseURL string, spec server.SweepSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	var lastErr error
	for try := 0; try < 20; try++ {
		if try > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := http.Post(baseURL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		var m struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted && derr == nil && m.ID != "" {
			return m.ID, nil
		}
		lastErr = fmt.Errorf("harness: sweep accept = %d %s", resp.StatusCode, m.Error)
	}
	return "", fmt.Errorf("harness: sweep never accepted: %w", lastErr)
}

func getStatus(baseURL, id string) (*sweepStatus, error) {
	resp, err := http.Get(baseURL + "/sweep/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("harness: status = %d", resp.StatusCode)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// waitSettled polls the sweep until a terminal state or the deadline. If
// onStall is non-nil it is invoked (with the current base URL, returning
// the possibly-new one) whenever no progress lands for the stall window —
// the coordinator-restart hook.
func waitSettled(baseURL, id string, deadline time.Duration, onStall func() (string, bool)) (*sweepStatus, error) {
	end := time.Now().Add(deadline)
	var last *sweepStatus
	for time.Now().Before(end) {
		st, err := getStatus(baseURL, id)
		if err == nil {
			last = st
			switch st.State {
			case "done", "failed":
				return st, nil
			}
		}
		if onStall != nil {
			if url, restarted := onStall(); restarted {
				baseURL = url
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if last == nil {
		return nil, fmt.Errorf("harness: sweep %s unreachable for the whole deadline", id)
	}
	return last, fmt.Errorf("harness: sweep %s not settled in %s (state %s, %d/%d done)",
		id, deadline, last.State, last.Done, last.Total)
}

// canonicalResults renders a results map to canonical bytes
// (encoding/json sorts map keys) — the byte-identity unit.
func canonicalResults(m map[string]*stats.Run) ([]byte, error) {
	if m == nil {
		m = map[string]*stats.Run{}
	}
	return json.Marshal(m)
}

// cellKeys maps every cell id the spec generates to its result key — the
// bridge between wire-level cell identities (tapped result posts) and the
// results map.
func cellKeys(spec server.SweepSpec) (map[string]string, map[string]exp.Key, error) {
	benches := spec.Benches
	if len(benches) == 0 {
		benches = []string{""}
	}
	ids := make(map[string]string)
	keys := make(map[string]exp.Key)
	for _, b := range benches {
		name := b
		if name == "" {
			name = server.SourceName(spec.Source, spec.In0, spec.In1)
		}
		for _, cs := range spec.Configs {
			cfg, err := cs.Config()
			if err != nil {
				return nil, nil, err
			}
			key := exp.KeyOf(name, cfg)
			id := exp.CellID(key)
			ids[id] = server.KeyString(key)
			keys[id] = key
		}
	}
	return ids, keys, nil
}

// Run executes one schedule against a fresh fabric and checks every
// invariant. The error return is for harness-level breakage (listen
// failures, control failures); invariant violations come back in the
// Report.
func Run(opts Options, sched *chaos.Schedule) (*Report, error) {
	opts = opts.withDefaults()
	controlBytes, err := controlFor(opts)
	if err != nil {
		return nil, fmt.Errorf("harness: control: %w", err)
	}
	idToKey, _, err := cellKeys(opts.Spec)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "fgpsim-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &Report{Repro: sched.Repro()}
	// Registered after RemoveAll so it runs first: when the run ends in a
	// violation and an artifact dir is armed, the journals are copied out
	// before the scratch tree is torn down. The later-registered worker and
	// coordinator shutdown defers run before this one, so journals are
	// closed by the time they are copied.
	defer func() {
		if opts.ArtifactDir == "" || rep.Violation == "" {
			return
		}
		if aerr := saveArtifacts(opts.ArtifactDir, rep, dir); aerr != nil {
			opts.Logf("harness: saving artifacts: %v", aerr)
		}
	}()

	// One chaos surface per component, shared across coordinator restarts:
	// a fault plan is per-RUN, and a restart must not re-arm spent faults.
	coordDisk := chaos.NewFS(chaos.OS{}, sched, "coord/disk")
	auditRate := opts.AuditRate
	if auditRate < 0 {
		auditRate = 0
	}
	coordCfg := server.Config{
		Coordinator:       true,
		JournalDir:        filepath.Join(dir, "journal"),
		CheckpointEvery:   opts.CheckpointEvery,
		WorkerDeadAfter:   2 * time.Second,
		StealAfter:        time.Second,
		AuditRate:         auditRate,
		QuarantineStrikes: opts.QuarantineStrikes,
		ScrubInterval:     opts.ScrubInterval,
		Disk:              coordDisk,
	}
	coord, err := server.New(coordCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: coordinator: %w", err)
	}
	coord.Start()
	hs, baseURL, ln, err := serveOn(coord, "")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	stopCoord := func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		coord.Drain(ctx)
		cancel()
	}
	defer func() { stopCoord() }()

	// Workers, each with its own chaos disk and chaos transport. The
	// Observe tap records every acknowledged successful result post for the
	// acked-never-lost invariant, and — because it sees the body AFTER
	// transit faults mutate it — checks the corrupt-result-served invariant:
	// a 200 on a result whose digest does not verify over its stats means
	// the ingest gate let corruption through.
	var ackedMu sync.Mutex
	acked := make(map[string]uint64) // cell id -> stats fingerprint
	corruptServed := ""              // first offending detail, "" = none
	var workerFS []*chaos.FS
	var workerTR []*chaos.Transport
	wctx, cancelWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancelWorkers()
		wg.Wait()
	}()
	for i := 0; i < opts.Workers; i++ {
		wdisk := chaos.NewFS(chaos.OS{}, sched, fmt.Sprintf("w%d/disk", i))
		tr := chaos.NewTransport(nil, sched, fmt.Sprintf("w%d/net", i))
		tr.Observe = func(req *http.Request, body []byte, status int) {
			if status != http.StatusOK || chaos.ClassOf(req.URL.Path) != "result" {
				return
			}
			var res struct {
				Cell   string     `json:"cell"`
				Stats  *stats.Run `json:"stats"`
				Digest string     `json:"digest"`
			}
			if json.Unmarshal(body, &res) != nil || res.Stats == nil {
				return
			}
			ackedMu.Lock()
			acked[res.Cell] = exp.StatsFingerprint(res.Stats)
			if res.Digest != "" && exp.DigestStats(res.Stats) != res.Digest && corruptServed == "" {
				corruptServed = fmt.Sprintf("cell %s: 200 ack on digest %s over stats digesting to %s",
					res.Cell, res.Digest, exp.DigestStats(res.Stats))
			}
			ackedMu.Unlock()
		}
		workerFS = append(workerFS, wdisk)
		workerTR = append(workerTR, tr)
		wopts := server.WorkerOptions{
			Coordinator: baseURL,
			ID:          fmt.Sprintf("w%d", i),
			Heartbeat:   100 * time.Millisecond,
			Concurrency: opts.Concurrency,
			SnapshotDir: filepath.Join(dir, fmt.Sprintf("w%d-snap", i)),
			DrainGrace:  5 * time.Second,
			Client:      &http.Client{Transport: tr, Timeout: 10 * time.Second},
			Disk:        wdisk,
			OmitDigests: opts.OmitDigests,
		}
		if opts.MangleWorker != nil {
			mw, wid := opts.MangleWorker, wopts.ID
			wopts.Mangle = func(cell string, s *stats.Run) *stats.Run { return mw(wid, cell, s) }
		}
		w, werr := server.NewWorker(wopts)
		if werr != nil {
			return nil, fmt.Errorf("harness: worker %d: %w", i, werr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}

	id, err := submitSweep(baseURL, opts.Spec)
	if err != nil {
		return nil, err
	}
	opts.Logf("chaos %s: sweep %s on %s, %d fault(s) planned", rep.Repro, id, addr, len(sched.Active()))

	// Settle watch with crash-restart on stall: if no progress lands for
	// StallAfter, kill the coordinator mid-flight (no drain completes — the
	// journals' fsync-per-append is what recovery leans on) and boot a
	// fresh one on the same address from the journals.
	lastProgress := time.Now()
	lastDone, lastState := -1, ""
	stallRestarts := 0
	crashed := false
	restart := func(why string) bool {
		rep.Restarts++
		opts.Logf("chaos %s: %s at %d done; coordinator restart %d", rep.Repro, why, lastDone, rep.Restarts)
		stopCoord()
		next, nerr := server.New(coordCfg)
		if nerr != nil {
			return false
		}
		next.Start()
		nhs, nurl, _, serr := serveOn(next, addr)
		if serr != nil {
			return false
		}
		coord, hs, baseURL = next, nhs, nurl
		lastProgress = time.Now()
		return true
	}
	onStall := func() (string, bool) {
		if st, err := getStatus(baseURL, id); err == nil {
			if st.Done != lastDone || st.State != lastState {
				lastDone, lastState = st.Done, st.State
				lastProgress = time.Now()
			}
		}
		if opts.CrashAfterCells > 0 && !crashed && lastDone >= opts.CrashAfterCells {
			crashed = true
			return baseURL, restart("crash point reached")
		}
		if time.Since(lastProgress) < opts.StallAfter || stallRestarts >= opts.MaxRestarts {
			return baseURL, false
		}
		stallRestarts++
		return baseURL, restart(fmt.Sprintf("stalled %s", opts.StallAfter))
	}
	st, werr := waitSettled(baseURL, id, opts.Deadline, onStall)

	// Collect fired faults regardless of outcome.
	rep.Fired = append(rep.Fired, coordDisk.Fired()...)
	for i := range workerFS {
		rep.Fired = append(rep.Fired, workerFS[i].Fired()...)
		rep.Fired = append(rep.Fired, workerTR[i].Fired()...)
	}

	// Invariant 1: recovery terminates.
	if werr != nil || st == nil {
		rep.Violation = "recovery-stalled"
		if werr != nil {
			rep.Detail = werr.Error()
		}
		return rep, nil
	}
	// Invariant 2: no quarantined cells.
	if st.State != "done" || len(st.Failed) > 0 {
		rep.Violation = "cells-quarantined"
		rep.Detail = fmt.Sprintf("state %s, failed %v, err %q", st.State, st.Failed, st.Error)
		return rep, nil
	}
	rep.AuditsRun, rep.AuditsDisagreed = st.AuditsRun, st.AuditsDisagreed
	rep.AuditsResolved, rep.IntegrityFailures = st.AuditsResolved, st.IntegrityFailures
	rep.WorkersQuarantined = getMetricInt(baseURL, "workers_quarantined")
	// Invariant 3 (new with DESIGN.md §17): no corrupted result was ever
	// served — every 200-acked result post's digest verified over its stats.
	ackedMu.Lock()
	corrupt := corruptServed
	ackedMu.Unlock()
	if corrupt != "" {
		rep.Violation = "corrupt-result-served"
		rep.Detail = corrupt
		return rep, nil
	}
	rep.Results, err = canonicalResults(st.Results)
	if err != nil {
		return nil, err
	}
	// Invariant 4: byte identity with the fault-free control.
	if string(rep.Results) != string(controlBytes) {
		rep.Violation = "results-differ"
		rep.Detail = fmt.Sprintf("fabric:  %s\ncontrol: %s", rep.Results, controlBytes)
		return rep, nil
	}
	// Invariant 5: every acknowledged result survived the merge. Skipped
	// under MangleWorker: a lying worker's acked results are SUPPOSED to be
	// overturned (their loss from the final results is the audit working).
	if opts.MangleWorker == nil {
		ackedMu.Lock()
		ackedCopy := make(map[string]uint64, len(acked))
		for k, v := range acked {
			ackedCopy[k] = v
		}
		ackedMu.Unlock()
		for cell, fp := range ackedCopy {
			keyStr, ok := idToKey[cell]
			if !ok {
				rep.Violation = "acked-result-lost"
				rep.Detail = fmt.Sprintf("acked cell %s is not a cell of this sweep", cell)
				return rep, nil
			}
			got, ok := st.Results[keyStr]
			if !ok || exp.StatsFingerprint(got) != fp {
				rep.Violation = "acked-result-lost"
				rep.Detail = fmt.Sprintf("cell %s (%s): acked fingerprint %016x missing from final results", cell, keyStr, fp)
				return rep, nil
			}
		}
	}
	// Invariant 6: the on-disk journal re-merges to the served results.
	jpath := filepath.Join(coordCfg.JournalDir, "sweep-"+id+".cells")
	merged, jerr := exp.ReadJournal(chaos.OS{}, jpath)
	if jerr != nil {
		rep.Violation = "journal-mismatch"
		rep.Detail = fmt.Sprintf("cell journal unreadable: %v", jerr)
		return rep, nil
	}
	if len(merged) != len(st.Results) {
		rep.Violation = "journal-mismatch"
		rep.Detail = fmt.Sprintf("journal has %d cells, served results %d", len(merged), len(st.Results))
		return rep, nil
	}
	for k, run := range merged {
		got, ok := st.Results[server.KeyString(k)]
		if !ok || exp.StatsFingerprint(got) != exp.StatsFingerprint(run) {
			rep.Violation = "journal-mismatch"
			rep.Detail = fmt.Sprintf("key %s: journal fingerprint %016x, served %016x",
				server.KeyString(k), exp.StatsFingerprint(run), statsFpOrZero(got))
			return rep, nil
		}
	}
	// Invariant 7 (new with DESIGN.md §17): audited disagreement converges —
	// the sweep cannot settle with a digest dispute still dangling.
	if st.AuditsDisagreed != st.AuditsResolved {
		rep.Violation = "audit-diverged"
		rep.Detail = fmt.Sprintf("audits_disagreed %d != audits_resolved %d at settle",
			st.AuditsDisagreed, st.AuditsResolved)
		return rep, nil
	}
	return rep, nil
}

// getMetricInt samples one integer counter from /metrics, 0 on any error
// (observability, not an invariant).
func getMetricInt(baseURL, name string) int64 {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var m map[string]any
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return 0
	}
	v, _ := m[name].(float64)
	return int64(v)
}

func statsFpOrZero(s *stats.Run) uint64 {
	if s == nil {
		return 0
	}
	return exp.StatsFingerprint(s)
}

// Explore plans and runs one schedule per seed, returning every report in
// seed order. It stops early only on harness-level errors, never on
// violations — the caller decides what a violation means.
func Explore(opts Options, seeds []uint64) ([]*Report, error) {
	opts = opts.withDefaults()
	var reps []*Report
	for _, seed := range seeds {
		rep, err := Run(opts, PlanFor(opts, seed))
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
		if rep.Violation != "" {
			opts.Logf("chaos seed %d: VIOLATION %s", seed, rep.Violation)
		}
	}
	return reps, nil
}

// Shrink reduces a violating schedule to a 1-minimal active-fault subset:
// dropping any single remaining fault makes the violation vanish. The
// returned report is the shrunk schedule's run (its repro token carries
// the keep mask).
func Shrink(opts Options, sched *chaos.Schedule) (*chaos.Schedule, *Report, error) {
	opts = opts.withDefaults()
	rep, err := Run(opts, sched)
	if err != nil {
		return nil, nil, err
	}
	if rep.Violation == "" {
		return sched, rep, fmt.Errorf("harness: schedule %s does not violate; nothing to shrink", sched.Repro())
	}
	cur := sched.Keep
	if cur == nil {
		cur = make([]int, len(sched.Faults))
		for i := range cur {
			cur[i] = i
		}
	}
	best := rep
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := make([]int, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			s2 := &chaos.Schedule{Seed: sched.Seed, Faults: sched.Faults, Keep: trial}
			rep2, rerr := Run(opts, s2)
			if rerr != nil {
				return nil, nil, rerr
			}
			if rep2.Violation != "" {
				cur, best = trial, rep2
				changed = true
				i--
			}
		}
	}
	shrunk := &chaos.Schedule{Seed: sched.Seed, Faults: sched.Faults, Keep: cur}
	opts.Logf("chaos: shrunk %s -> %s (%s)", sched.Repro(), shrunk.Repro(), best.Violation)
	return shrunk, best, nil
}
