package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// sweepStatusGolden is the full GET /sweep/{id} body of the sweep
// TestSweepStatusGolden drives, with the sweep id blanked to goldenID.
var sweepStatusGolden = filepath.Join("testdata", "sweep_status.golden.json")

const goldenID = "SWEEP-ID"

// TestSweepStatusGolden pins the status body of a finished 2-cell sweep
// that fills every field: one cell's result and digest, the other cell's
// failure, a digest-gate rejection, and an audit whose disagreement a
// tie-break resolves. The coordinator's bookkeeping may change shape; what
// a status reader sees may not.
func TestSweepStatusGolden(t *testing.T) {
	f := newProtocolFixtureWith(t, "w1", Config{AuditRate: 1})
	x, y := f.cells[0], f.cells[1]

	// w1's first delivery of x fails the digest gate; x requeues.
	if code := f.post(t, f.deliveryBody(t, "w1", x, x.Attempt, f.stats[x.Cell], "00000000:1", false)); code != http.StatusBadRequest {
		t.Fatalf("corrupt delivery = %d, want 400", code)
	}
	again := f.poll(t, "w1", 16)
	if len(again) != 1 || again[0].Cell != x.Cell {
		t.Fatalf("requeued poll = %+v, want x alone", again)
	}
	x2 := again[0]
	if code := f.post(t, f.trueBody(t, "w1", x2, x2.Attempt, false)); code != http.StatusOK {
		t.Fatalf("x = %d", code)
	}
	fail := f.deliveryBody(t, "w1", y, y.Attempt, nil, "", false)
	fail = bytes.Replace(fail, []byte(`"stats":null`), []byte(`"err":"boom"`), 1)
	if code := f.post(t, fail); code != http.StatusOK {
		t.Fatalf("y failure = %d", code)
	}

	// w2 audits x and lies; w3 breaks the tie for the recorded winner.
	f.register(t, "w2")
	audit := f.poll(t, "w2", 16)
	if len(audit) != 1 || !audit[0].Audit {
		t.Fatalf("w2 poll = %+v, want x's audit", audit)
	}
	if code := f.post(t, f.lieBody(t, "w2", audit[0], audit[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("lying audit = %d", code)
	}
	f.register(t, "w3")
	tie := f.poll(t, "w3", 16)
	if len(tie) != 1 || !tie[0].Audit {
		t.Fatalf("w3 poll = %+v, want x's tie-break", tie)
	}
	if code := f.post(t, f.trueBody(t, "w3", tie[0], tie[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("tie-break = %d", code)
	}
	waitDone(t, f.ts, f.id, 10*time.Second)

	resp, err := http.Get(f.ts.URL + "/sweep/" + f.id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.ReplaceAll(body, []byte(f.id), []byte(goldenID))
	want, err := os.ReadFile(sweepStatusGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("status body differs from %s\ngot:\n%s\nwant:\n%s", sweepStatusGolden, got, want)
	}
}

// metricsKeys is the /metrics key set, run_latency_us's fields as
// run_latency_us.<field>. perfbench and the chaos harness read these names.
var metricsKeys = []string{
	"audits_disagreed", "audits_run", "cells_done", "cells_failed",
	"cells_requeued", "cells_restored", "cells_stolen", "chaos_faults_injected",
	"inflight", "integrity_failures", "jobs_accepted", "jobs_done",
	"jobs_resumed", "journal_fsync_failures", "queue_depth", "retries",
	"run_latency_us.count", "run_latency_us.mean", "run_latency_us.p50",
	"run_latency_us.p99", "runs_failed", "runs_ok", "scrub_corrupt_records",
	"scrub_passes", "scrub_quarantined", "scrub_repaired", "shed_total",
	"ship_retries", "snapshots_shipped", "watchdog_kills", "workers_dead",
	"workers_live", "workers_quarantined",
}

// TestMetricsKeySet pins the /metrics key set.
func TestMetricsKeySet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, m := getJSON(t, ts.URL+"/metrics")
	var got []string
	for k, v := range m {
		if sub, ok := v.(map[string]any); ok {
			for f := range sub {
				got = append(got, k+"."+f)
			}
			continue
		}
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(metricsKeys, " ") {
		t.Errorf("/metrics keys\ngot:  %v\nwant: %v", got, metricsKeys)
	}
}
