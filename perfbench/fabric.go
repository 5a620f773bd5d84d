package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/chaos"
	"fgpsim/internal/difftest"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
	"fgpsim/internal/server"
	"fgpsim/internal/stats"
)

// The fabric workload: the seed picks generated programs, each becomes one
// POST /sweep of short configurations, and all sweeps are submitted to an
// in-process coordinator before one in-process worker (Concurrency 1)
// registers over loopback. With a single worker no cell is stolen or
// audited, so every cell runs exactly once; with the sweeps queued before
// registration the worker never sees an empty poll until the end.
const (
	fabricProgs    = 40 // programs (sweeps) per pass
	fabricToyProgs = 2  // programs per pass at quick-test size
	fabricInputLen = 64 // bytes of input per program

	// A program is kept only if it retires this many nodes on its input,
	// so every seed's sweeps carry about the same simulated work. The band
	// sits near the smallest programs the generator makes, so the engine
	// stays a minority of a cell's active time.
	fabricMinNodes = 6_000
	fabricMaxNodes = 10_000

	// A fabric set-up takes about a millisecond, so its median needs more
	// samples than a grid workload's. They are taken in batches, one before
	// each pass, so the median spans the run's changing host state rather
	// than one moment of it.
	fabricSetupReps  = 61
	fabricSetupBatch = 20

	// fabricHostShare is how strongly the fabric's active time follows the
	// host speed the calibration kernel sees: its time is scaled by the
	// kernel's scale to this power. Part of a cell's active time is fsync
	// and loopback round trips, which do not slow with the core. Over 18
	// passes on a drifting host, the log of a pass's rate followed the log
	// of its kernel time with a slope of 0.59; the standard deviation of
	// the log of the passes' rates was 0.086 unscaled, 0.063 scaled at
	// power 1 and 0.027 at power 0.59.
	fabricHostShare = 0.5
)

// fabricConfigs are the short configurations of every fabric sweep:
// static, dyn1 and dyn4, single and enlarged blocks, issue models 1 and 8,
// memory configuration A.
func fabricConfigs() []server.ConfigSpec {
	var out []server.ConfigSpec
	for _, disc := range []string{"static", "dyn1", "dyn4"} {
		for _, br := range []string{"single", "enlarged"} {
			for _, issue := range []int{1, 8} {
				out = append(out, server.ConfigSpec{Disc: disc, Issue: issue, Mem: "A", Branch: br})
			}
		}
	}
	return out
}

// fabricSpecs generates the seed's sweeps. Slot i draws programs with
// difftest sweep profile i mod 5, each on a fixed-length input, until one
// retires a node count inside the band.
func fabricSpecs(seed int64, n int) ([]server.SweepSpec, error) {
	profiles := difftest.SweepProfiles()
	cfgs := fabricConfigs()
	specs := make([]server.SweepSpec, n)
	next := seed * 1_000_000
	for i := range specs {
		for tries := 0; specs[i].Source == ""; tries++ {
			if tries == 1000 {
				return nil, fmt.Errorf("fabric: no generated program in the node band for slot %d", i)
			}
			ps := next
			next++
			src := difftest.Generate(ps, profiles[i%len(profiles)])
			in := difftest.GenInput(ps*2, fabricInputLen)
			prog, err := minic.Compile("gen.mc", src, minic.Options{Optimize: true})
			if err != nil {
				return nil, fmt.Errorf("fabric: generated program %d: %w", ps, err)
			}
			ref, err := interp.Run(prog, in, nil, interp.Options{MaxNodes: fabricMaxNodes})
			if errors.Is(err, interp.ErrNodeLimit) || err == nil && ref.RetiredNodes < fabricMinNodes {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("fabric: generated program %d: %w", ps, err)
			}
			specs[i] = server.SweepSpec{Source: src, In0: string(in), Configs: cfgs}
		}
	}
	return specs, nil
}

// sourceBench is the benchmark the server prepares for a source sweep
// (both input sets are the supplied inputs).
func sourceBench(spec server.SweepSpec) *bench.Benchmark {
	in0, in1 := []byte(spec.In0), []byte(spec.In1)
	return &bench.Benchmark{
		Name:   server.SourceName(spec.Source, spec.In0, spec.In1),
		Source: spec.Source,
		Inputs: func(int) ([]byte, []byte) { return in0, in1 },
	}
}

// machineConfigs resolves the sweep's configuration specs.
func machineConfigs(specs []server.ConfigSpec) ([]machine.Config, error) {
	out := make([]machine.Config, len(specs))
	for i, cs := range specs {
		cfg, err := cs.Config()
		if err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// localRun is a plain exp run of the fabric's cells: the reference every
// merged result must equal, and, timed, the baseline of the fabric's
// per-cell overhead.
type localRun struct {
	wall    time.Duration // preparation plus the grids
	grids   time.Duration // the grids alone
	digests map[string]string
	runs    map[exp.Key]*stats.Run
	cells   []time.Duration
}

func runLocal(ctx context.Context, specs []server.SweepSpec) (*localRun, error) {
	cfgs, err := machineConfigs(specs[0].Configs)
	if err != nil {
		return nil, err
	}
	lr := &localRun{digests: make(map[string]string), runs: make(map[exp.Key]*stats.Run)}
	runtime.GC()
	start := time.Now()
	for _, spec := range specs {
		p, err := exp.Prepare(sourceBench(spec), enlarge.DefaultOptions())
		if err != nil {
			return nil, err
		}
		gstart := time.Now()
		res, err := exp.GridContext(ctx, []*exp.Prepared{p}, cfgs, exp.GridOptions{
			Workers:  1,
			Observer: func(o exp.CellOutcome) { lr.cells = append(lr.cells, o.Duration) },
		})
		lr.grids += time.Since(gstart)
		if err != nil {
			return nil, err
		}
		for k, s := range res.Runs {
			lr.runs[k] = s
		}
	}
	lr.wall = time.Since(start)
	for k, s := range lr.runs {
		lr.digests[server.KeyString(k)] = exp.DigestStats(s)
	}
	return lr, nil
}

// tap is the worker's HTTP transport. It sees the replies of the fabric
// protocol as the worker does: the registration reply ends set-up, and the
// acknowledgement of the last expected result ends the pass. It sums the
// worker's active time, and in a traced pass it also keeps per-request
// timings.
type tap struct {
	base       http.RoundTripper
	record     bool
	hs         *hostSpeed // sampled after each result's acknowledgement (nil: never)
	want       int64      // result acknowledgements that end the pass
	acks       atomic.Int64
	registered chan time.Time
	finished   chan time.Time

	mu sync.Mutex
	// A single-cell worker polls again only after its cell's result is
	// acknowledged, so the latest poll is the one that handed out the cell
	// whose result comes next.
	pollStart time.Time
	active    time.Duration // Σ from the start of a cell's poll to its result's acknowledgement
	polls     []float64     // milliseconds
	empty     int
	results   []float64 // milliseconds
}

func newTap(base http.RoundTripper, want int, record bool, hs *hostSpeed) *tap {
	return &tap{base: base, want: int64(want), record: record, hs: hs,
		registered: make(chan time.Time, 1), finished: make(chan time.Time, 1)}
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	switch req.URL.Path {
	case "/fabric/register":
		select {
		case t.registered <- end:
		default:
		}
	case "/fabric/poll":
		t.mu.Lock()
		t.pollStart = start
		t.mu.Unlock()
		if t.record {
			return t.notePoll(resp, end.Sub(start))
		}
	case "/fabric/result":
		t.mu.Lock()
		t.active += end.Sub(t.pollStart)
		if t.record {
			t.results = append(t.results, ms(end.Sub(start)))
		}
		t.mu.Unlock()
		if t.hs != nil {
			// Outside the active time, while the worker loop sleeps.
			t.hs.sample()
		}
		if t.acks.Add(1) == t.want {
			t.finished <- end
		}
	}
	return resp, nil
}

// notePoll records one poll and whether it handed out no cell.
func (t *tap) notePoll(resp *http.Response, d time.Duration) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var pr struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.polls = append(t.polls, ms(d))
	if len(pr.Cells) == 0 {
		t.empty++
	}
	t.mu.Unlock()
	return resp, nil
}

// timedDisk is the real filesystem with every fsync timed.
type timedDisk struct {
	chaos.OS
	mu    sync.Mutex
	syncs int
	total time.Duration
}

func (d *timedDisk) note(start time.Time) {
	el := time.Since(start)
	d.mu.Lock()
	d.syncs++
	d.total += el
	d.mu.Unlock()
}

func (d *timedDisk) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := d.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, d: d}, nil
}

func (d *timedDisk) CreateTemp(dir, pattern string) (chaos.File, error) {
	f, err := d.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, d: d}, nil
}

func (d *timedDisk) SyncDir(dir string) error {
	defer d.note(time.Now())
	return d.OS.SyncDir(dir)
}

type timedFile struct {
	chaos.File
	d *timedDisk
}

func (f *timedFile) Sync() error {
	defer f.d.note(time.Now())
	return f.File.Sync()
}

// fabricPass is one fresh fabric serving the run's sweeps.
type fabricPass struct {
	setup    time.Duration
	makespan time.Duration // registration reply to the last result's acknowledgement
	active   time.Duration // the worker's active time within it (tap.active)
	tap      *tap
	disk     *timedDisk // nil unless traced
	gc       gcDelta
	status   []sweepStatus
	counters map[string]any // the coordinator's /metrics
}

// counter reads one numeric /metrics counter (-1 when absent).
func (fp *fabricPass) counter(name string) float64 {
	if v, ok := fp.counters[name].(float64); ok {
		return v
	}
	return -1
}

type sweepStatus struct {
	State   string                `json:"state"`
	Failed  []string              `json:"failed"`
	Results map[string]*stats.Run `json:"results"`
	Digests map[string]string     `json:"digests"`
}

// runFabricPass builds a fabric under dir, submits specs, lets one worker
// serve them, and tears everything down. Set-up is server.New, Start, the
// listener, NewWorker and the worker's registration; submission is not
// part of it. With no specs the pass is a set-up sample only. With a
// non-nil speed, the host-speed kernel is sampled after every result.
func runFabricPass(ctx context.Context, dir string, specs []server.SweepSpec, traced bool, speed *hostSpeed) (*fabricPass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cells := 0
	for _, s := range specs {
		cells += len(s.Configs)
	}
	fp := &fabricPass{}
	var disk chaos.Disk
	if traced {
		fp.disk = &timedDisk{}
		disk = fp.disk
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	fp.tap = newTap(transport, cells, traced, speed)
	ctl := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	runtime.GC()

	start := time.Now()
	srv, err := server.New(server.Config{Coordinator: true, JournalDir: filepath.Join(dir, "journal"), Disk: disk})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(ctx)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	fp.setup = time.Since(start)
	defer func() {
		hs.Close()
		<-served
		srv.Drain(context.Background())
	}()
	base := "http://" + ln.Addr().String()

	ids := make([]string, len(specs))
	for i, spec := range specs {
		if ids[i], err = submit(ctl, base, spec); err != nil {
			return nil, err
		}
	}

	wctx, stopWorker := context.WithCancel(ctx)
	start = time.Now()
	w, err := server.NewWorker(server.WorkerOptions{
		Coordinator: base,
		ID:          "w0",
		Concurrency: 1,
		SnapshotDir: filepath.Join(dir, "worker"),
		DrainGrace:  time.Second,
		Client:      &http.Client{Transport: fp.tap, Timeout: 30 * time.Second},
		Disk:        disk,
	})
	if err != nil {
		stopWorker()
		return nil, err
	}
	var runErr error
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		runErr = w.Run(wctx)
	}()
	defer func() {
		stopWorker()
		<-stopped
	}()
	var registered time.Time
	select {
	case registered = <-fp.tap.registered:
	case <-stopped:
		return nil, fmt.Errorf("fabric worker stopped before registering: %v", runErr)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	fp.setup += registered.Sub(start)
	if cells == 0 {
		return fp, nil
	}

	g := startGC()
	select {
	case end := <-fp.tap.finished:
		fp.makespan = end.Sub(registered)
	case <-ctx.Done():
		return nil, fmt.Errorf("fabric: %d of %d results acknowledged: %w", fp.tap.acks.Load(), cells, ctx.Err())
	}
	fp.gc = g.stop()
	fp.tap.mu.Lock()
	fp.active = fp.tap.active
	fp.tap.mu.Unlock()

	for _, id := range ids {
		var st sweepStatus
		if err := getJSON(ctl, base+"/sweep/"+id, &st); err != nil {
			return nil, err
		}
		fp.status = append(fp.status, st)
	}
	if err := getJSON(ctl, base+"/metrics", &fp.counters); err != nil {
		return nil, err
	}
	return fp, nil
}

func submit(c *http.Client, base string, spec server.SweepSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.Post(base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var m struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return "", fmt.Errorf("sweep accept: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("sweep accept: %d %s", resp.StatusCode, m.Error)
	}
	return m.ID, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkFabricPass verifies a pass: every merged result equals the local
// run's, the counts equal the first pass's, and the fabric was clean — no
// cell stolen, requeued, retried or rejected, and exactly one completion
// per cell. It returns the pass's counts.
func checkFabricPass(r *runner, fp *fabricPass, local *localRun, first *totals) totals {
	want := len(local.digests)
	r.attempt(want)
	var t totals
	bad := 0
	for _, st := range fp.status {
		if st.State != "done" || len(st.Failed) > 0 {
			r.fail(0, "fabric: sweep state %s, failed %v", st.State, st.Failed)
		}
		for k, s := range st.Results {
			t.add(s)
			d, ok := local.digests[k]
			if !ok || exp.DigestStats(s) != d || st.Digests[k] != d {
				bad++
			}
		}
	}
	if bad > 0 || t.cells != want {
		r.fail(bad+want-t.cells, "fabric: %d of %d merged results missing or unequal to the local run", bad+want-t.cells, want)
	}
	if first.cells == 0 {
		*first = t
	} else if t != *first {
		r.fail(want, "fabric: pass counts %v differ from the first pass's %v", t, *first)
	}
	c := fp.counter
	if c("cells_stolen") != 0 || c("cells_requeued") != 0 || c("retries") != 0 ||
		c("integrity_failures") != 0 || c("cells_done") != float64(want) {
		r.fail(want, "fabric: unclean run: cells_done %v of %d, stolen %v, requeued %v, retries %v, integrity failures %v",
			c("cells_done"), want, c("cells_stolen"), c("cells_requeued"), c("retries"), c("integrity_failures"))
	}
	return t
}

// runFabric drives the fabric workload. Its rates are over the worker's
// active time (tap), which leaves out the rest of the worker's fixed 20 ms
// busy-poll sleep: that sleep rounds every short cell up to the next 20 ms
// and would hide any service cost below it. They are the medians of the
// passes' rates, each scaled to the reference host speed by the kernel
// times of its pass (hostspeed.go), to the power fabricHostShare. Its
// set-up median is scaled by the kernel times of the whole run.
func runFabric(ctx context.Context, r *runner) error {
	n := fabricProgs
	if r.opts.toy {
		n = fabricToyProgs
	}
	specs, err := fabricSpecs(r.opts.seed, n)
	if err != nil {
		return err
	}
	local, err := runLocal(ctx, specs)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(r.opts.tmp, "perfbench-fabric-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	passDir := func(i int) string { return filepath.Join(tmp, fmt.Sprintf("pass%d", i)) }
	if r.opts.trace {
		return traceFabric(ctx, r, specs, local, passDir)
	}

	var (
		setup               []float64
		first               totals
		elapsed             time.Duration
		rawRate             []float64
		cellRate, cycleRate []float64
		passes              int
		hs                  = newHostSpeed()
	)
	// sample takes n set-up samples, each a fabric with no sweeps.
	sample := func(n int) error {
		for i := 0; i < n; i++ {
			passes++
			fp, err := runFabricPass(ctx, passDir(passes), nil, false, nil)
			if err != nil {
				return err
			}
			setup = append(setup, fp.setup.Seconds())
		}
		return nil
	}
	for pass := 0; pass == 0 || elapsed.Seconds() < r.opts.seconds; pass++ {
		if err := sample(fabricSetupBatch); err != nil {
			return err
		}
		passes++
		k := hs.mark()
		fp, err := runFabricPass(ctx, passDir(passes), specs, false, hs)
		if err != nil {
			return err
		}
		setup = append(setup, fp.setup.Seconds())
		elapsed += fp.makespan
		t := checkFabricPass(r, fp, local, &first)
		scaled := fp.active.Seconds() * math.Pow(hs.scaleSince(k), fabricHostShare)
		rawRate = append(rawRate, float64(t.cells)/fp.active.Seconds())
		cellRate = append(cellRate, float64(t.cells)/scaled)
		cycleRate = append(cycleRate, float64(t.cycles)/scaled/1e6)
	}
	if err := sample(fabricSetupReps - len(setup)); err != nil {
		return err
	}
	r.counts = first
	scale := hs.scale()
	fmt.Fprintf(os.Stderr, "perfbench: fabric: %v per pass; %d passes in %s; unscaled %.4g..%.4g cells/s; scaled %.4g..%.4g; host scale %.3f; %d set-up samples\n",
		first, len(cellRate), elapsed.Round(time.Millisecond), quantile(rawRate, 0), quantile(rawRate, 1),
		quantile(cellRate, 0), quantile(cellRate, 1), scale, len(setup))
	r.set("setup_s", median(setup)*scale, "s")
	r.set("cells_per_s", median(cellRate), "cells/s")
	r.set("sim_mcycles_per_s", median(cycleRate), "Mcycles/s")
	return nil
}

// traceFabric is the fabric's traced run: a plain pass, a pass with the
// transport and the disk timed, the local run's cell timings, and the
// step-by-step replay of the same cells.
func traceFabric(ctx context.Context, r *runner, specs []server.SweepSpec, local *localRun, passDir func(int) string) error {
	var first totals
	plain, err := runFabricPass(ctx, passDir(0), specs, false, nil)
	if err != nil {
		return err
	}
	checkFabricPass(r, plain, local, &first)
	traced, err := runFabricPass(ctx, passDir(1), specs, true, nil)
	if err != nil {
		return err
	}
	checkFabricPass(r, traced, local, &first)
	r.counts = first

	cfgs, err := machineConfigs(specs[0].Configs)
	if err != nil {
		return err
	}
	var lt layers
	var ps []*exp.Prepared
	for _, spec := range specs {
		p, err := lt.prepare(sourceBench(spec))
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	runs, _, err := lt.cells(ctx, ps, cfgs)
	if err != nil {
		r.fail(first.cells, "fabric: replay: %v", err)
	} else {
		checkReplayRuns(r, "fabric", local.runs, runs)
	}
	lt.report(r)

	cells := float64(first.cells)
	r.set("exp.cell_ms_p50", quantile(msList(local.cells), 0.50), "ms")
	r.set("exp.cell_ms_p95", quantile(msList(local.cells), 0.95), "ms")
	r.set("exp.grid_overhead_ms", ms(local.grids-sumDur(local.cells)), "ms")
	r.set("exp.journal_fsync_ms", ms(traced.disk.total), "ms")
	r.set("exp.journal_fsyncs", float64(traced.disk.syncs), "count")
	t := traced.tap
	t.mu.Lock()
	r.set("server.poll_ms_p50", quantile(t.polls, 0.50), "ms")
	r.set("server.poll_ms_p95", quantile(t.polls, 0.95), "ms")
	r.set("server.polls", float64(len(t.polls)), "count")
	r.set("server.empty_polls", float64(t.empty), "count")
	r.set("server.result_ms_p50", quantile(t.results, 0.50), "ms")
	r.set("server.worker_idle_ms_per_cell", ms(traced.makespan-traced.active)/cells, "ms")
	t.mu.Unlock()
	r.set("server.overhead_ms_per_cell", ms(plain.makespan-local.wall)/cells, "ms")
	for _, name := range []string{"cells_done", "cells_stolen", "cells_requeued", "retries", "integrity_failures"} {
		r.set("server."+name, traced.counter(name), "count")
	}
	plain.gc.report(r)
	r.set("trace_overhead", traced.makespan.Seconds()/plain.makespan.Seconds()-1, "ratio")
	return nil
}

// reportNoFabric sets the fabric-layer metrics of a workload that never
// enters the server or its journals: every count and time is zero.
func reportNoFabric(r *runner) {
	for _, name := range []string{"exp.journal_fsync_ms", "server.poll_ms_p50", "server.poll_ms_p95",
		"server.result_ms_p50", "server.worker_idle_ms_per_cell", "server.overhead_ms_per_cell"} {
		r.set(name, 0, "ms")
	}
	for _, name := range []string{"exp.journal_fsyncs", "server.polls", "server.empty_polls", "server.cells_done",
		"server.cells_stolen", "server.cells_requeued", "server.retries", "server.integrity_failures"} {
		r.set(name, 0, "count")
	}
}
