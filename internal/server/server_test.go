package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
)

// tinySrc is a fast-simulating but non-trivial MiniC program used for
// end-to-end request tests.
const tinySrc = `
int main() {
	int c;
	int sum = 0;
	c = getc(0);
	while (c >= 0) {
		sum = sum + c;
		c = getc(0);
	}
	putc('0' + (sum % 10));
	putc('\n');
	return 0;
}
`

// slowSrc burns enough cycles that a millisecond-scale deadline reliably
// expires mid-simulation, while staying under the profiler's node budget.
const slowSrc = `
int main() {
	int i = 0;
	int acc = 0;
	while (i < 2000000) {
		acc = acc + i;
		i = i + 1;
	}
	putc('0' + (acc % 10));
	return 0;
}
`

var testConfig = ConfigSpec{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("non-JSON body (%d): %s", resp.StatusCode, raw)
		}
	}
	return resp, m
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var m map[string]any
	json.Unmarshal(raw, &m)
	return resp, m
}

func TestHealthReadyMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	resp, m := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, key := range []string{"queue_depth", "inflight", "shed_total", "watchdog_kills", "run_latency_us"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, m := postJSON(t, ts.URL+"/run", RunRequest{
		Source: tinySrc, In0: "hello simd\n", Config: testConfig,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run = %d: %v", resp.StatusCode, m)
	}
	st, ok := m["stats"].(map[string]any)
	if !ok {
		t.Fatalf("no stats in response: %v", m)
	}
	if cycles, _ := st["Cycles"].(float64); cycles <= 0 {
		t.Errorf("stats.Cycles = %v, want > 0", st["Cycles"])
	}
	resp, m = getJSON(t, ts.URL+"/metrics")
	resp.Body.Close()
	if got, _ := m["runs_ok"].(float64); got != 1 {
		t.Errorf("runs_ok = %v, want 1", m["runs_ok"])
	}
	if lat, _ := m["run_latency_us"].(map[string]any); lat == nil || lat["count"].(float64) < 1 {
		t.Errorf("run latency histogram not populated: %v", m["run_latency_us"])
	}
}

func TestRunBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"bad config", RunRequest{Source: tinySrc, Config: ConfigSpec{Disc: "warp", Issue: 4, Mem: "A", Branch: "single"}}},
		{"bench and source", RunRequest{Bench: "wc", Source: tinySrc, Config: testConfig}},
		{"neither bench nor source", RunRequest{Config: testConfig}},
		{"bad timeout", RunRequest{Source: tinySrc, Config: testConfig, Timeout: "soon"}},
		{"unknown field", map[string]any{"sauce": tinySrc, "config": testConfig}},
		{"unknown bench", RunRequest{Bench: "no-such-bench", Config: testConfig}},
	}
	for _, tc := range cases {
		resp, m := postJSON(t, ts.URL+"/run", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, m)
		}
	}
}

// TestRunOverloadSheds is the synthetic overload test from the acceptance
// criteria: with the queue full, further requests get 429 + Retry-After
// instead of queueing unboundedly.
func TestRunOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, Concurrency: 1})
	// Occupy all limiter capacity so admitted requests stay queued.
	if err := s.admit.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/run", RunRequest{Source: tinySrc, In0: "x", Config: testConfig})
		first <- resp
	}()
	waitFor(t, func() bool { return s.admit.queued() == 1 })

	resp, m := postJSON(t, ts.URL+"/run", RunRequest{Source: tinySrc, In0: "x", Config: testConfig})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded /run = %d, want 429 (%v)", resp.StatusCode, m)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	if m["error"] != "overloaded" {
		t.Errorf("error = %v, want overloaded", m["error"])
	}

	s.admit.lim.release()
	if resp := <-first; resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", resp.StatusCode)
	}
	_, m = getJSON(t, ts.URL+"/metrics")
	if got, _ := m["shed_total"].(float64); got != 1 {
		t.Errorf("shed_total = %v, want 1", m["shed_total"])
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("slowSrc profiling is expensive under -short/-race")
	}
	_, ts := newTestServer(t, Config{})
	resp, m := postJSON(t, ts.URL+"/run", RunRequest{
		Source: slowSrc, Config: testConfig, Timeout: "1ms",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/run with 1ms deadline = %d, want 504 (%v)", resp.StatusCode, m)
	}
	if m["error"] != "deadline exceeded" {
		t.Errorf("error = %v, want deadline exceeded", m["error"])
	}
}

func TestSweepLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := SweepSpec{
		Source: tinySrc, In0: "sweep input\n",
		Configs: []ConfigSpec{
			{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
			{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
		},
	}
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no sweep id in %v", m)
	}
	if cells, _ := m["cells"].(float64); cells != 2 {
		t.Errorf("cells = %v, want 2", m["cells"])
	}

	var status map[string]any
	waitFor2(t, 60*time.Second, func() bool {
		_, status = getJSON(t, ts.URL+"/sweep/"+id)
		return status["state"] == jobDone || status["state"] == jobFailed
	})
	if status["state"] != jobDone {
		t.Fatalf("sweep state = %v: %v", status["state"], status)
	}
	results, _ := status["results"].(map[string]any)
	if len(results) != 2 {
		t.Fatalf("results = %d entries, want 2: %v", len(results), status)
	}

	resp, _ = getJSON(t, ts.URL+"/sweep/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep id = %d, want 404", resp.StatusCode)
	}
	_, mm := getJSON(t, ts.URL+"/metrics")
	if got, _ := mm["cells_done"].(float64); got != 2 {
		t.Errorf("cells_done = %v, want 2", mm["cells_done"])
	}
	if got, _ := mm["jobs_done"].(float64); got != 1 {
		t.Errorf("jobs_done = %v, want 1", mm["jobs_done"])
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		spec SweepSpec
	}{
		{"no configs", SweepSpec{Source: tinySrc}},
		{"no program", SweepSpec{Configs: []ConfigSpec{testConfig}}},
		{"benches and source", SweepSpec{Benches: []string{"wc"}, Source: tinySrc, Configs: []ConfigSpec{testConfig}}},
		{"bad config", SweepSpec{Source: tinySrc, Configs: []ConfigSpec{{Disc: "dyn4", Issue: 99, Mem: "A", Branch: "single"}}}},
		{"bad timeout", SweepSpec{Source: tinySrc, Configs: []ConfigSpec{testConfig}, Timeout: "whenever"}},
		{"unknown bench", SweepSpec{Benches: []string{"sort", "no-such-bench"}, Configs: []ConfigSpec{testConfig}}},
		{"source does not compile", SweepSpec{Source: "int main() { return undeclared; }", Configs: []ConfigSpec{testConfig}}},
	}
	for _, tc := range cases {
		resp, m := postJSON(t, ts.URL+"/sweep", tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, m)
		}
	}
}

func TestDrainFlipsReadyAndRejectsWork(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, _ := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/run", RunRequest{Source: tinySrc, Config: testConfig})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/run while draining = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/sweep", SweepSpec{Source: tinySrc, Configs: []ConfigSpec{testConfig}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/sweep while draining = %d, want 503", resp.StatusCode)
	}
	// /healthz stays up: the process is alive, just not admitting.
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", resp.StatusCode)
	}
}

// TestSweepJournalResume is the crash-recovery acceptance test: an accepted
// sweep whose "done" record never made it to the request journal is resumed
// on the next boot, and cells fsync'd to its cell journal before the crash
// are restored instead of re-simulated.
func TestSweepJournalResume(t *testing.T) {
	dir := t.TempDir()
	spec := SweepSpec{
		Source: tinySrc, In0: "resume input\n",
		Configs: []ConfigSpec{
			{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
			{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
		},
	}

	// Life 1: run the sweep to completion so its cell journal holds every
	// cell, then simulate a crash that lost the "done" record by appending a
	// fresh accept for the same spec (pointing at a copy of the cell
	// journal) with no matching done.
	var firstID string
	{
		s, ts := newTestServer(t, Config{JournalDir: dir})
		resp, m := postJSON(t, ts.URL+"/sweep", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
		}
		firstID = m["id"].(string)
		waitFor2(t, 60*time.Second, func() bool {
			_, st := getJSON(t, ts.URL+"/sweep/"+firstID)
			return st["state"] == jobDone
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Drain(ctx)
		cancel()
	}

	if pend, err := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal")); err != nil || len(pend) != 0 {
		t.Fatalf("settled sweep still pending: %v, %v", pend, err)
	}
	copyFile(t, filepath.Join(dir, "sweep-"+firstID+".cells"), filepath.Join(dir, "sweep-crashed.cells"))
	appendAccept(t, filepath.Join(dir, "requests.journal"), "crashed", &spec)

	// Life 2: New must find the unsettled sweep, Start must run it, and
	// every cell must come back from the journal rather than re-simulation.
	s2, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()

	var status map[string]any
	waitFor2(t, 60*time.Second, func() bool {
		resp, st := getJSON(t, ts2.URL+"/sweep/crashed")
		if resp.StatusCode != http.StatusOK {
			return false
		}
		status = st
		return st["state"] == jobDone || st["state"] == jobFailed
	})
	if status["state"] != jobDone {
		t.Fatalf("resumed sweep state = %v: %v", status["state"], status)
	}
	if results, _ := status["results"].(map[string]any); len(results) != 2 {
		t.Fatalf("resumed sweep results = %d entries, want 2", len(results))
	}
	_, m := getJSON(t, ts2.URL+"/metrics")
	if got, _ := m["jobs_resumed"].(float64); got != 1 {
		t.Errorf("jobs_resumed = %v, want 1", m["jobs_resumed"])
	}
	if got, _ := m["cells_restored"].(float64); got != 2 {
		t.Errorf("cells_restored = %v, want 2 (cells must come from the journal)", m["cells_restored"])
	}
	if got, _ := m["cells_done"].(float64); got != 0 {
		t.Errorf("cells_done = %v, want 0 (nothing should re-simulate)", m["cells_done"])
	}

	// The resumed sweep settles the journal: a third boot recovers nothing.
	if pend, err := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal")); err != nil || len(pend) != 0 {
		t.Fatalf("resumed sweep left journal unsettled: %v, %v", pend, err)
	}
}

// TestDrainInterruptsSweep drives a live drain with work in flight: the
// interrupted sweep must stay unsettled in the journal (so a restart resumes
// it) and Drain must still return nil — the exit-0 guarantee.
func TestDrainInterruptsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slowSrc profiling is expensive under -short/-race")
	}
	dir := t.TempDir()
	s, err := New(Config{JournalDir: dir, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := SweepSpec{
		Source: slowSrc,
		Configs: []ConfigSpec{
			{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
			{Disc: "dyn4", Issue: 2, Mem: "A", Branch: "single"},
			{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
			{Disc: "dyn256", Issue: 4, Mem: "A", Branch: "single"},
		},
	}
	resp, m := postJSON(t, ts.URL+"/sweep", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	// Wait until the sweep is actually running, then force-drain with an
	// already-expired context so in-flight work is cancelled immediately.
	waitFor2(t, 60*time.Second, func() bool {
		_, st := getJSON(t, ts.URL+"/sweep/"+id)
		return st["state"] != jobQueued
	})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(expired); err != nil {
		t.Fatalf("Drain must return nil for exit 0, got %v", err)
	}

	_, st := getJSON(t, ts.URL+"/sweep/"+id)
	switch st["state"] {
	case jobInterrupted:
		// The common case: the drain caught the sweep mid-flight. It must
		// still be pending in the journal.
		pend, err := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(pend) != 1 || pend[0].ID != id {
			t.Fatalf("interrupted sweep not pending in journal: %+v", pend)
		}
		// Restart: the sweep resumes and completes, restoring any cells the
		// first life journaled before the cancel.
		s2, err := New(Config{JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s2.Start()
		ts2 := httptest.NewServer(s2.Handler())
		defer ts2.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s2.Drain(ctx)
		}()
		waitFor2(t, 120*time.Second, func() bool {
			resp, st := getJSON(t, ts2.URL+"/sweep/"+id)
			return resp.StatusCode == http.StatusOK && st["state"] == jobDone
		})
		if pend, err := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal")); err != nil || len(pend) != 0 {
			t.Fatalf("resumed sweep left journal unsettled: %v, %v", pend, err)
		}
	case jobDone:
		// The sweep won the race and finished before the cancel landed;
		// nothing to resume, the journal must be settled.
		if pend, _ := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal")); len(pend) != 0 {
			t.Fatalf("done sweep left journal unsettled: %+v", pend)
		}
	default:
		t.Fatalf("sweep state after drain = %v: %v", st["state"], st)
	}
}

// TestPendingJobsSpecHashGuard covers both paths of the request-journal
// self-hash: intact records (hashed or legacy unhashed) are recovered,
// while a record whose spec no longer matches its accepted hash — in-place
// corruption that still parses as JSON — is skipped.
func TestPendingJobsSpecHashGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "requests.journal")
	good := SweepSpec{Source: tinySrc, Configs: []ConfigSpec{testConfig}}
	legacy := SweepSpec{Benches: []string{"wc"}, Configs: []ConfigSpec{testConfig}}
	tampered := SweepSpec{Source: slowSrc, Configs: []ConfigSpec{testConfig}}

	jw, err := exp.OpenJournal(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	records := []journalRecord{
		{Op: "accept", ID: "good", Spec: &good, SpecHash: specHash(&good)},
		{Op: "accept", ID: "legacy", Spec: &legacy}, // pre-hash record: trusted
		{Op: "accept", ID: "bad", Spec: &tampered, SpecHash: specHash(&good)},
	}
	for _, rec := range records {
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	pend, err := pendingJobs(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(pend))
	for i, rec := range pend {
		ids[i] = rec.ID
	}
	if len(pend) != 2 || ids[0] != "good" || ids[1] != "legacy" {
		t.Fatalf("pendingJobs = %v, want [good legacy]", ids)
	}
	if pend[0].Spec.Source != good.Source {
		t.Errorf("recovered spec lost its source")
	}
}

// waitFor2 polls a condition with an explicit budget (simulation-scale
// waits, unlike waitFor's scheduling-scale 2s).
func waitFor2(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %s", budget)
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendAccept(t *testing.T, journalPath, id string, spec *SweepSpec) {
	t.Helper()
	jw, err := exp.OpenJournal(chaos.OS{}, journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	if err := jw.Append(journalRecord{Op: "accept", ID: id, Spec: spec}); err != nil {
		t.Fatal(err)
	}
}
