package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
)

// Tests of the single-node path: a Server without Config.Coordinator runs
// its sweeps on one in-process worker (local.go).

// TestRunNotStarvedBySweep: on a Concurrency-1 server busy with a
// multi-cell sweep, a /run waits for the running cell, not for the whole
// sweep — the FIFO limiter hands the freed slot to the queued /run before
// the sweep's next cell.
func TestRunNotStarvedBySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("mediumSrc simulation is expensive under -short/-race")
	}
	s, ts := newTestServer(t, Config{Concurrency: 1})
	resp, m := postJSON(t, ts.URL+"/sweep", SweepSpec{Source: mediumSrc, Configs: []ConfigSpec{
		{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
		{Disc: "dyn4", Issue: 2, Mem: "A", Branch: "single"},
		{Disc: "dyn1", Issue: 4, Mem: "A", Branch: "single"},
		{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	// A cell holds the only slot.
	waitFor2(t, 60*time.Second, func() bool { return s.admit.lim.inUse() == 1 })

	resp, m = postJSON(t, ts.URL+"/run", RunRequest{Source: tinySrc, In0: "x", Config: testConfig})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run = %d: %v", resp.StatusCode, m)
	}
	if _, st := getJSON(t, ts.URL+"/sweep/"+id); st["state"] == jobDone {
		t.Fatalf("/run finished only after the whole sweep: %v", st)
	}
	if st := waitDone(t, ts, id, 120*time.Second); st["state"] != jobDone {
		t.Fatalf("sweep state %v: %v", st["state"], st)
	}
}

// TestSweepShedsBeyondQueueDepth: in both roles, once QueueDepth sweeps
// are unfinished a further sweep gets 429 with a Retry-After hint; on a
// single node, accepting resumes once the backlog finishes.
func TestSweepShedsBeyondQueueDepth(t *testing.T) {
	spec := SweepSpec{Source: tinySrc, In0: "shed\n", Configs: []ConfigSpec{testConfig}}
	for _, coordinator := range []bool{false, true} {
		name := "single-node"
		if coordinator {
			name = "coordinator"
		}
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{QueueDepth: 1, Concurrency: 1, Coordinator: coordinator})
			// Keep the first sweep unfinished: the single node's only slot is
			// held here, and the coordinator has no workers.
			if err := s.admit.lim.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			release := sync.OnceFunc(s.admit.lim.release)
			t.Cleanup(release)

			resp, m := postJSON(t, ts.URL+"/sweep", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("first sweep = %d: %v", resp.StatusCode, m)
			}
			first := m["id"].(string)
			resp, m = postJSON(t, ts.URL+"/sweep", spec)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("sweep beyond QueueDepth = %d, want 429 (%v)", resp.StatusCode, m)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
				t.Errorf("Retry-After = %q, want a positive hint", ra)
			}
			if got := s.met.shed.Value(); got != 1 {
				t.Errorf("shed_total = %d, want 1", got)
			}
			if coordinator {
				return
			}
			release()
			waitDone(t, ts, first, 60*time.Second)
			if resp, m := postJSON(t, ts.URL+"/sweep", spec); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("sweep after the backlog drained = %d: %v", resp.StatusCode, m)
			}
		})
	}
}

// snapDisk counts the temp files created in dir — one per snapshot write,
// which a checkpointing cell makes from inside the engine's checkpoint
// hook — and, when wedge is non-nil, blocks the first until wedge is
// closed, so the engine stops beating while it waits.
type snapDisk struct {
	chaos.OS
	dir    string
	writes atomic.Int64
	wedge  chan struct{}
	once   sync.Once
}

func (d *snapDisk) CreateTemp(dir, pattern string) (chaos.File, error) {
	if dir == d.dir {
		d.writes.Add(1)
		if d.wedge != nil {
			d.once.Do(func() { <-d.wedge })
		}
	}
	return d.OS.CreateTemp(dir, pattern)
}

// TestStuckCellFails: a cell whose heartbeat stops is killed by the
// server's watchdog, fails with a *StuckRunError and is quarantined like
// any failed cell — the sweep still finishes — and the kill counts in
// watchdog_kills.
func TestStuckCellFails(t *testing.T) {
	dir := t.TempDir()
	disk := &snapDisk{dir: filepath.Join(dir, "snapshots"), wedge: make(chan struct{})}
	s, ts := newTestServer(t, Config{
		JournalDir:       dir,
		CheckpointEvery:  2_000,
		Disk:             disk,
		WatchdogInterval: 10 * time.Millisecond,
		WatchdogStall:    300 * time.Millisecond,
	})
	unwedge := sync.OnceFunc(func() { close(disk.wedge) })
	t.Cleanup(unwedge)

	resp, m := postJSON(t, ts.URL+"/sweep", SweepSpec{
		Source: tinySrc, In0: strings.Repeat("x", 4000), Configs: []ConfigSpec{testConfig},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	waitFor2(t, 60*time.Second, func() bool { return s.wd.kills.Load() >= 1 })
	unwedge()

	st := waitDone(t, ts, id, 60*time.Second)
	if st["state"] != jobDone {
		t.Fatalf("sweep state %v, want done with a failed cell: %v", st["state"], st)
	}
	failed, _ := st["failed"].([]any)
	if len(failed) != 1 || !strings.Contains(failed[0].(string), "stuck") {
		t.Fatalf("failed = %v, want one stuck cell", st["failed"])
	}
	_, mm := getJSON(t, ts.URL+"/metrics")
	if got, _ := mm["watchdog_kills"].(float64); got != 1 {
		t.Errorf("watchdog_kills = %v, want 1", mm["watchdog_kills"])
	}
	if got, _ := mm["cells_failed"].(float64); got != 1 {
		t.Errorf("cells_failed = %v, want 1", mm["cells_failed"])
	}
}

// TestSingleNodeHidesFabricRoutes: the worker protocol is public only on a
// coordinator; a single node's in-process worker reaches it privately.
func TestSingleNodeHidesFabricRoutes(t *testing.T) {
	poll := func(base string) int {
		resp, err := http.Post(base+"/fabric/poll", "application/json", strings.NewReader(`{"worker":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	_, single := newTestServer(t, Config{})
	if code := poll(single.URL); code != http.StatusNotFound {
		t.Errorf("single-node /fabric/poll = %d, want 404", code)
	}
	_, coord := newTestServer(t, Config{Coordinator: true})
	if code := poll(coord.URL); code != http.StatusGone {
		t.Errorf("coordinator /fabric/poll from an unregistered worker = %d, want 410", code)
	}
}

// TestSweepResumesGridJournal: a single-node sweep interrupted by an
// earlier version of the server left its accept record and a cell journal
// written by exp.GridContext itself — a spec line, then records without
// attempt stamps. The coordinator path restores every cell from it.
func TestSweepResumesGridJournal(t *testing.T) {
	dir := t.TempDir()
	spec := SweepSpec{Source: tinySrc, In0: "grid journal\n", Configs: []ConfigSpec{
		{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
		{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
	}}
	cellPath := filepath.Join(dir, "sweep-old.cells")
	prepared, cfgs := referenceGrid(t, spec)
	if _, err := exp.GridContext(context.Background(), prepared, cfgs, exp.GridOptions{Journal: cellPath}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cellPath)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	sc.Scan()
	f.Close()
	var head struct {
		Spec string `json:"spec"`
	}
	if json.Unmarshal(sc.Bytes(), &head) != nil || head.Spec == "" {
		t.Fatalf("journal does not open with a spec line: %s", sc.Bytes())
	}
	appendAccept(t, filepath.Join(dir, "requests.journal"), "old", &spec)

	s, ts := newTestServer(t, Config{JournalDir: dir})
	st := waitDone(t, ts, "old", 60*time.Second)
	if st["state"] != jobDone {
		t.Fatalf("resumed sweep state %v: %v", st["state"], st)
	}
	if got, want := resultsOf(t, st), referenceResults(t, spec, 0); string(got) != string(want) {
		t.Errorf("resumed results differ from the reference\ngot:       %s\nreference: %s", got, want)
	}
	if got := s.met.cellsRestored.Value(); got != 2 {
		t.Errorf("cells_restored = %d, want 2", got)
	}
	if got := s.met.cellsDone.Value(); got != 0 {
		t.Errorf("cells_done = %d, want 0 (nothing should re-simulate)", got)
	}
}

// TestCheckpointedSweepLeavesNoSnapshots: once a checkpointed sweep is
// done, no snapshot is left — not the in-process worker's local
// checkpoints, not a remote worker's, and not the copies a remote worker
// shipped to the coordinator.
func TestCheckpointedSweepLeavesNoSnapshots(t *testing.T) {
	spec := SweepSpec{Source: tinySrc, In0: strings.Repeat("x", 4000), Configs: []ConfigSpec{
		{Disc: "dyn4", Issue: 4, Mem: "A", Branch: "single"},
		{Disc: "static", Issue: 1, Mem: "A", Branch: "single"},
	}}
	for _, coordinator := range []bool{false, true} {
		name := "single-node"
		if coordinator {
			name = "coordinator"
		}
		t.Run(name, func(t *testing.T) {
			dir, workerDir := t.TempDir(), t.TempDir()
			disk := &snapDisk{dir: filepath.Join(dir, "snapshots")}
			s, ts := newTestServer(t, Config{JournalDir: dir, CheckpointEvery: 2_000, Coordinator: coordinator, Disk: disk})
			if coordinator {
				startTestWorker(t, ts, "w", WorkerOptions{SnapshotDir: workerDir})
			}
			resp, m := postJSON(t, ts.URL+"/sweep", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
			}
			if st := waitDone(t, ts, m["id"].(string), 60*time.Second); st["state"] != jobDone {
				t.Fatalf("sweep state %v: %v", st["state"], st)
			}
			if coordinator && s.met.snapshotsShipped.Value() == 0 || !coordinator && disk.writes.Load() == 0 {
				t.Fatal("no checkpoint was written; the sweep never checkpointed")
			}
			for _, d := range []string{filepath.Join(dir, "snapshots"), filepath.Join(dir, "fabric-snapshots"), workerDir} {
				left, err := filepath.Glob(filepath.Join(d, "*.snap*"))
				if err != nil {
					t.Fatal(err)
				}
				if len(left) != 0 {
					t.Errorf("left after the sweep finished: %v", left)
				}
			}
		})
	}
}

// TestNoTempDirsLeftBehind: a journal-less server and a worker without a
// snapshot dir each keep their files in a temp dir, and remove it when
// drained.
func TestNoTempDirsLeftBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spec := SweepSpec{Source: tinySrc, In0: "temp\n", Configs: []ConfigSpec{testConfig}}
	for _, coordinator := range []bool{false, true} {
		s, err := New(Config{Coordinator: coordinator})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		ts := httptest.NewServer(s.Handler())
		stopWorker := func() {}
		if coordinator {
			_, stopWorker = startTestWorker(t, ts, "w", WorkerOptions{})
		}
		resp, m := postJSON(t, ts.URL+"/sweep", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
		}
		waitDone(t, ts, m["id"].(string), 60*time.Second)
		if entries, _ := os.ReadDir(tmp); len(entries) == 0 {
			t.Fatal("no temp dir was made; the test proves nothing")
		}
		stopWorker()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.Drain(ctx)
		cancel()
		if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Errorf("coordinator=%v: left behind after drain: %v", coordinator, names)
		}
	}
}

// TestSweepCellsFeedLatency: in both roles each settled cell adds its run
// time to run_latency_us and its extra attempts to retries.
func TestSweepCellsFeedLatency(t *testing.T) {
	spec := fabricSpec(tinySrc, 1) // 2 cells
	for _, coordinator := range []bool{false, true} {
		name := "single-node"
		if coordinator {
			name = "coordinator"
		}
		t.Run(name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Coordinator: coordinator})
			if coordinator {
				startTestWorker(t, ts, "w", WorkerOptions{SnapshotDir: t.TempDir()})
			}
			resp, m := postJSON(t, ts.URL+"/sweep", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("/sweep = %d: %v", resp.StatusCode, m)
			}
			waitDone(t, ts, m["id"].(string), 60*time.Second)
			_, mm := getJSON(t, ts.URL+"/metrics")
			lat, _ := mm["run_latency_us"].(map[string]any)
			if got, _ := lat["count"].(float64); got != 2 {
				t.Errorf("run_latency_us.count = %v, want 2", lat["count"])
			}
			if got, _ := mm["retries"].(float64); got != 0 {
				t.Errorf("retries = %v, want 0", mm["retries"])
			}
		})
	}
}
