package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// mediumSrc runs long enough (~2M cycles) to cross many 100k-cycle
// checkpoint boundaries but finishes in about a second, so chaos tests can
// kill a worker mid-cell without inheriting slowSrc's full runtime.
const mediumSrc = `
int main() {
	int i = 0;
	int acc = 0;
	while (i < 600000) {
		acc = acc + i;
		i = i + 1;
	}
	putc('0' + (acc % 10));
	return 0;
}
`

// fabricSpec is a small multi-image sweep: one source program crossed with
// window/predictor/memory variants, the shape the fabric shards by
// image-cache key.
func fabricSpec(src string, nWindows int) SweepSpec {
	var cfgs []ConfigSpec
	for _, mem := range []string{"A", "B"} {
		for _, win := range []int{0, 8, 16}[:nWindows] {
			cfgs = append(cfgs, ConfigSpec{Disc: "dyn4", Issue: 4, Mem: mem, Branch: "single", Window: win})
		}
	}
	return SweepSpec{Source: src, In0: "fabric input\n", Configs: cfgs}
}

// resultsOf renders a finished job status's results subtree to canonical
// bytes (encoding/json sorts map keys), the unit the byte-identity
// assertions compare.
func resultsOf(t *testing.T, m map[string]any) []byte {
	t.Helper()
	res, ok := m["results"]
	if !ok {
		t.Fatalf("status has no results: %v", m)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		_, m := getJSON(t, ts.URL+"/sweep/"+id)
		switch m["state"] {
		case "done", "failed":
			return m
		}
		time.Sleep(25 * time.Millisecond)
	}
	_, m := getJSON(t, ts.URL+"/sweep/"+id)
	t.Fatalf("sweep %s not settled in %s (state %v, done %v/%v)", id, timeout, m["state"], m["done"], m["total"])
	return nil
}

// referenceResults runs spec straight through exp.GridContext — no server,
// no coordinator, no worker — at the given checkpoint cadence, and renders
// the results map the way a status reader sees it: keys by KeyString, the
// JSON decoded and re-encoded as resultsOf does. It is the byte-identity
// reference for every sweep path, independent of all of them.
func referenceResults(t *testing.T, spec SweepSpec, checkpointEvery int64) []byte {
	t.Helper()
	prepared, cfgs := referenceGrid(t, spec)
	res, err := exp.GridContext(context.Background(), prepared, cfgs, exp.GridOptions{
		Retries:         spec.Retries,
		CheckpointEvery: checkpointEvery,
		SnapshotDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]*stats.Run, len(res.Runs))
	for k, st := range res.Runs {
		runs[KeyString(k)] = st
	}
	raw, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	return resultsOf(t, map[string]any{"results": decoded})
}

// referenceGrid prepares spec's programs with exp.Prepare, as the server's
// prep cache does, and resolves its configurations.
func referenceGrid(t *testing.T, spec SweepSpec) ([]*exp.Prepared, []machine.Config) {
	t.Helper()
	var prepared []*exp.Prepared
	for _, name := range spec.Benches {
		p, err := exp.Prepare(bench.ByName(name), enlarge.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, p)
	}
	if spec.Source != "" {
		in0, in1 := []byte(spec.In0), []byte(spec.In1)
		p, err := exp.Prepare(&bench.Benchmark{
			Name:   SourceName(spec.Source, spec.In0, spec.In1),
			Source: spec.Source,
			Inputs: func(int) ([]byte, []byte) { return in0, in1 },
		}, enlarge.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, p)
	}
	var cfgs []machine.Config
	for _, cs := range spec.Configs {
		cfg, err := cs.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return prepared, cfgs
}

// singleNodeResults runs spec on a single-node server built from cfg and
// returns its results bytes.
func singleNodeResults(t *testing.T, spec SweepSpec, cfg Config) []byte {
	t.Helper()
	_, ts := newTestServer(t, cfg)
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single-node sweep = %d: %v", resp.StatusCode, m)
	}
	st := waitDone(t, ts, m["id"].(string), 90*time.Second)
	if st["state"] != "done" {
		t.Fatalf("single-node sweep state %v: %v", st["state"], st["error"])
	}
	return resultsOf(t, st)
}

// startTestWorker runs a Worker against ts until the returned stop func is
// called (graceful drain) or the test ends.
func startTestWorker(t *testing.T, ts *httptest.Server, id string, opts WorkerOptions) (w *Worker, stop func()) {
	t.Helper()
	opts.Coordinator = ts.URL
	opts.ID = id
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	if opts.Concurrency == 0 {
		opts.Concurrency = 2
	}
	if opts.DrainGrace == 0 {
		opts.DrainGrace = 20 * time.Second
	}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", id, err)
		}
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %s did not stop", id)
		}
	}
	t.Cleanup(stop)
	return w, stop
}

// TestFabricByteIdenticalToSingleNode is the fabric's happy path: a sweep
// sharded across three workers merges to results byte-identical to the
// plain exp.GridContext reference, and so does the same sweep on a
// single-node server.
func TestFabricByteIdenticalToSingleNode(t *testing.T) {
	spec := fabricSpec(tinySrc, 3)
	control := referenceResults(t, spec, 100_000)
	single := singleNodeResults(t, spec, Config{JournalDir: t.TempDir(), CheckpointEvery: 100_000})
	if !bytes.Equal(single, control) {
		t.Errorf("single-node results differ from the reference\nsingle:    %s\nreference: %s", single, control)
	}

	s, ts := newTestServer(t, Config{
		Coordinator:     true,
		JournalDir:      t.TempDir(),
		CheckpointEvery: 100_000,
		WorkerDeadAfter: 2 * time.Second,
		StealAfter:      time.Second,
	})
	for i := 0; i < 3; i++ {
		startTestWorker(t, ts, fmt.Sprintf("w%d", i), WorkerOptions{SnapshotDir: t.TempDir()})
	}
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
	}
	st := waitDone(t, ts, m["id"].(string), 90*time.Second)
	if st["state"] != "done" {
		t.Fatalf("fabric sweep state %v: %v (failed %v)", st["state"], st["error"], st["failed"])
	}
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("fabric results differ from single-node control\nfabric:  %s\ncontrol: %s", got, control)
	}
	if s.met.jobsDone.Value() != 1 {
		t.Errorf("jobs_done = %d, want 1", s.met.jobsDone.Value())
	}
}

// protocolFixture accepts a sweep on a worker-less coordinator, registers
// a synthetic worker, and computes the real (deterministic) stats for each
// cell so protocol-level tests can deliver byte-exact results by hand.
type protocolFixture struct {
	s     *Server
	ts    *httptest.Server
	id    string // sweep id
	lease uint64
	cells []cellAssignment
	stats map[string]json.RawMessage // cell id -> marshaled *stats.Run
}

func newProtocolFixture(t *testing.T, worker string) *protocolFixture {
	t.Helper()
	spec := fabricSpec(tinySrc, 1) // 2 cells: mem A, mem B
	s, ts := newTestServer(t, Config{
		Coordinator:     true,
		JournalDir:      t.TempDir(),
		WorkerDeadAfter: time.Hour, // liveness plays no part here
		StealAfter:      time.Hour,
	})
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
	}
	f := &protocolFixture{s: s, ts: ts, id: m["id"].(string), stats: make(map[string]json.RawMessage)}
	f.register(t, worker)
	f.cells = f.poll(t, worker, 16)
	if len(f.cells) != len(spec.Configs) {
		t.Fatalf("polled %d cells, want %d", len(f.cells), len(spec.Configs))
	}
	// Compute each cell's true result exactly as any worker would.
	pc := newPrepCache()
	p, err := pc.prepareSource(spec.Source, spec.In0, spec.In1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.cells {
		cfg, err := c.Config.Config()
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.RunContext(context.Background(), cfg, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		f.stats[c.Cell] = raw
	}
	return f
}

func (f *protocolFixture) register(t *testing.T, worker string) {
	t.Helper()
	resp, m := postJSON(t, f.ts.URL+"/fabric/register", registerRequest{Worker: worker})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d: %v", resp.StatusCode, m)
	}
	f.lease = uint64(m["lease"].(float64))
}

func (f *protocolFixture) poll(t *testing.T, worker string, max int) []cellAssignment {
	t.Helper()
	b, _ := json.Marshal(pollRequest{Worker: worker, Lease: f.lease, Max: max})
	resp, err := http.Post(f.ts.URL+"/fabric/poll", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll = %d", resp.StatusCode)
	}
	var pr pollResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr.Cells
}

// resultBody builds the JSON for one real result delivery.
func (f *protocolFixture) resultBody(t *testing.T, worker string, cell cellAssignment, attempt int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"worker": worker, "lease": f.lease, "sweep_id": f.id,
		"cell": cell.Cell, "attempt": attempt, "stats": f.stats[cell.Cell],
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (f *protocolFixture) post(t *testing.T, body []byte) int {
	t.Helper()
	resp, err := http.Post(f.ts.URL+"/fabric/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (f *protocolFixture) doneCount(t *testing.T) float64 {
	t.Helper()
	_, m := getJSON(t, f.ts.URL+"/sweep/"+f.id)
	return m["done"].(float64)
}

// TestFabricTornResultPost: a result POST whose body is cut mid-stream is
// rejected with 400 and changes nothing; the retried intact delivery then
// merges byte-identically to the single-node control.
func TestFabricTornResultPost(t *testing.T) {
	control := referenceResults(t, fabricSpec(tinySrc, 1), 0)
	f := newProtocolFixture(t, "torn-worker")

	whole := f.resultBody(t, "torn-worker", f.cells[0], f.cells[0].Attempt)
	if code := f.post(t, whole[:len(whole)/2]); code != http.StatusBadRequest {
		t.Fatalf("torn POST = %d, want 400", code)
	}
	if got := f.doneCount(t); got != 0 {
		t.Fatalf("torn POST settled a cell: done = %v", got)
	}
	// The worker's retry delivers the whole body.
	for _, c := range f.cells {
		if code := f.post(t, f.resultBody(t, "torn-worker", c, c.Attempt)); code != http.StatusOK {
			t.Fatalf("result = %d, want 200", code)
		}
	}
	st := waitDone(t, f.ts, f.id, 10*time.Second)
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("results after torn delivery differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
}

// TestFabricDuplicateDelivery: the same result delivered twice (a retry
// racing a slow ack) is absorbed — one settle, byte-identical merge.
func TestFabricDuplicateDelivery(t *testing.T) {
	control := referenceResults(t, fabricSpec(tinySrc, 1), 0)
	f := newProtocolFixture(t, "dup-worker")

	first := f.resultBody(t, "dup-worker", f.cells[0], f.cells[0].Attempt)
	for i := 0; i < 2; i++ {
		if code := f.post(t, first); code != http.StatusOK {
			t.Fatalf("delivery %d = %d, want 200", i, code)
		}
	}
	if got := f.doneCount(t); got != 1 {
		t.Fatalf("after duplicate delivery done = %v, want 1", got)
	}
	if code := f.post(t, f.resultBody(t, "dup-worker", f.cells[1], f.cells[1].Attempt)); code != http.StatusOK {
		t.Fatalf("second cell = %d", code)
	}
	st := waitDone(t, f.ts, f.id, 10*time.Second)
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("results after duplicate delivery differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
	if n := f.s.met.jobsDone.Value(); n != 1 {
		t.Errorf("jobs_done = %d, want 1", n)
	}
}

// TestFabricLateDeliveryAfterRequeue: a worker is superseded, its cells
// requeue and complete under a second worker, and THEN the first worker's
// results limp in — including a corrupted one. The (attempt, fingerprint)
// merge keeps the later assignment's records and the final results stay
// byte-identical to the control.
func TestFabricLateDeliveryAfterRequeue(t *testing.T) {
	control := referenceResults(t, fabricSpec(tinySrc, 1), 0)
	f := newProtocolFixture(t, "flaky")
	oldLease := f.lease
	oldCells := f.cells

	// Supersede: flaky re-registers (as after a crash); its in-flight
	// assignments requeue.
	f.register(t, "flaky")
	if f.lease == oldLease {
		t.Fatal("re-register did not advance the lease")
	}
	if n := f.s.met.cellsRequeued.Value(); n != int64(len(oldCells)) {
		t.Fatalf("cells_requeued = %d, want %d", n, len(oldCells))
	}
	// A second worker takes the requeued cells (attempt 2) and finishes.
	f.register(t, "steady")
	newCells := f.poll(t, "steady", 16)
	if len(newCells) != len(oldCells) {
		t.Fatalf("requeued poll returned %d cells, want %d", len(newCells), len(oldCells))
	}
	for _, c := range newCells {
		if c.Attempt <= oldCells[0].Attempt {
			t.Fatalf("requeued attempt %d does not supersede %d", c.Attempt, oldCells[0].Attempt)
		}
		if code := f.post(t, f.resultBody(t, "steady", c, c.Attempt)); code != http.StatusOK {
			t.Fatalf("steady result = %d", code)
		}
	}
	st := waitDone(t, f.ts, f.id, 10*time.Second)

	// Late deliveries from the superseded incarnation: one honest
	// duplicate, one with corrupted stats. Both are accepted (200) and
	// neither changes the settled winners — the corrupted record's attempt
	// ordinal is older.
	f.lease = oldLease
	honest := f.resultBody(t, "flaky", oldCells[0], oldCells[0].Attempt)
	if code := f.post(t, honest); code != http.StatusOK {
		t.Fatalf("late honest result = %d, want 200", code)
	}
	corrupt := bytes.Replace(f.resultBody(t, "flaky", oldCells[1], oldCells[1].Attempt),
		[]byte(`"Cycles":`), []byte(`"Cycles":9`), 1)
	if code := f.post(t, corrupt); code != http.StatusOK {
		t.Fatalf("late corrupt result = %d, want 200", code)
	}
	_, st = getJSON(t, f.ts.URL+"/sweep/"+f.id)
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("results after late deliveries differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
	// And the journal replays to the same verdict a restart would need.
	merged, err := exp.MergeJournals(chaos.OS{}, f.s.cellJournalPath(f.id))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range newCells {
		cfg, _ := c.Config.Config()
		key := exp.KeyOf(sourceName(tinySrc, "fabric input\n", ""), cfg)
		want := f.stats[c.Cell]
		got, err := json.Marshal(merged[key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("journal merge winner for %s differs from the true result", c.Cell)
		}
	}
}

// TestFabricWorkerDeathRequeues: kill -9 one of two workers mid-sweep. The
// liveness watchdog declares it dead, its cells requeue (with shipped
// snapshots where checkpoints landed), the survivor finishes, and the
// merge is still byte-identical to the control.
func TestFabricWorkerDeathRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("mediumSrc simulation is expensive under -short/-race")
	}
	spec := fabricSpec(mediumSrc, 2) // slow cells: the kill lands mid-flight
	spec.In0 = ""
	control := referenceResults(t, spec, 100_000)

	s, ts := newTestServer(t, Config{
		Coordinator:     true,
		JournalDir:      t.TempDir(),
		CheckpointEvery: 100_000,
		WorkerDeadAfter: 600 * time.Millisecond,
		StealAfter:      400 * time.Millisecond,
	})
	_, stopVictim := startTestWorker(t, ts, "victim", WorkerOptions{
		SnapshotDir: t.TempDir(), Abandon: true, Concurrency: 2,
	})
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	// Let the victim take cells and ship at least one checkpoint, then
	// kill it without ceremony (Abandon: no park, no deregister).
	deadline := time.Now().Add(30 * time.Second)
	for s.met.snapshotsShipped.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if s.met.snapshotsShipped.Value() == 0 {
		t.Fatal("victim never shipped a checkpoint")
	}
	stopVictim()
	startTestWorker(t, ts, "survivor", WorkerOptions{SnapshotDir: t.TempDir(), Concurrency: 2})

	st := waitDone(t, ts, id, 120*time.Second)
	if st["state"] != "done" {
		t.Fatalf("fabric sweep state %v: %v (failed %v)", st["state"], st["error"], st["failed"])
	}
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("post-death results differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
	if n := s.met.workersDead.Value(); n != 1 {
		t.Errorf("workers_dead = %d, want 1", n)
	}
	if n := s.met.cellsRequeued.Value(); n == 0 {
		t.Error("cells_requeued = 0, want > 0")
	}
}

// slowResults is an HTTP transport that delays every result delivery.
type slowResults struct{ delay time.Duration }

func (s slowResults) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/fabric/result" {
		time.Sleep(s.delay)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestFabricCoordinatorRestart: drain the coordinator mid-sweep, boot a
// fresh one over the same journal dir, and finish. Completed cells are
// restored from the cell journal (not re-run), attempts keep ascending
// thanks to the assignment journal, and the merge matches the control.
func TestFabricCoordinatorRestart(t *testing.T) {
	spec := fabricSpec(tinySrc, 3)
	control := referenceResults(t, spec, 0)
	dir := t.TempDir()
	cfg := Config{
		Coordinator:     true,
		JournalDir:      dir,
		WorkerDeadAfter: 2 * time.Second,
		StealAfter:      time.Second,
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	// Slow result delivery keeps the short sweep in flight long enough for
	// the drain below to land mid-sweep: a worker polls again the moment a
	// result is acknowledged, so undelayed tiny cells finish in a few ms.
	_, stopW1 := startTestWorker(t, ts1, "w1", WorkerOptions{SnapshotDir: t.TempDir(), Concurrency: 1,
		Client: &http.Client{Transport: slowResults{50 * time.Millisecond}}})
	resp, m := postJSON(t, ts1.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, st := getJSON(t, ts1.URL+"/sweep/"+id)
		if st["done"].(float64) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopW1() // graceful: parks, posts, deregisters
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	s1.Drain(drainCtx)
	cancel()
	ts1.Close()

	s2, ts2 := newTestServer(t, cfg)
	if s2.met.jobsResumed.Value() != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", s2.met.jobsResumed.Value())
	}
	if s2.met.cellsRestored.Value() < 2 {
		t.Errorf("cells_restored = %d, want >= 2 (completed cells must not re-run)", s2.met.cellsRestored.Value())
	}
	startTestWorker(t, ts2, "w2", WorkerOptions{SnapshotDir: t.TempDir()})
	st := waitDone(t, ts2, id, 90*time.Second)
	if st["state"] != "done" {
		t.Fatalf("resumed sweep state %v: %v", st["state"], st["error"])
	}
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("post-restart results differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
}
