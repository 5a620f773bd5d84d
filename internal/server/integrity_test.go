package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
	"fgpsim/internal/stats"
)

// TestAuditSampledDeterministic: the audit sampler is a pure function of
// (sweep, cell, rate) — the same cell gets the same verdict on every call
// and across coordinator restarts — with the edge rates exact and the
// mid-range rate roughly proportional.
func TestAuditSampledDeterministic(t *testing.T) {
	const sweep = "sweep-7f3a"
	hits := 0
	for i := 0; i < 2000; i++ {
		cell := fmt.Sprintf("cell-%d", i)
		if auditSampled(sweep, cell, 0) {
			t.Fatalf("rate 0 sampled %s", cell)
		}
		if !auditSampled(sweep, cell, 1) {
			t.Fatalf("rate 1 skipped %s", cell)
		}
		picked := auditSampled(sweep, cell, 0.25)
		if picked != auditSampled(sweep, cell, 0.25) {
			t.Fatalf("verdict for %s changed between calls", cell)
		}
		if picked {
			hits++
		}
	}
	// Deterministic, so these bounds either always hold or never do;
	// they pin the hash's uniformity, not luck.
	if hits < 350 || hits > 650 {
		t.Errorf("rate 0.25 sampled %d/2000 cells, want ~500", hits)
	}
}

// TestDigestGateStrikesAndQuarantines drives the full quarantine arc at the
// protocol level: a result whose digest disagrees with its stats is
// rejected with 400 before touching any journal, the cell requeues, and —
// with the strike threshold at 1 — the sender's lease is revoked on the
// spot. Re-registration is the re-admission path: a fresh epoch, a clean
// strike ledger, and the requeued cell offered back at a higher attempt.
func TestDigestGateStrikesAndQuarantines(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Coordinator:       true,
		JournalDir:        t.TempDir(),
		WorkerDeadAfter:   time.Hour,
		StealAfter:        time.Hour,
		QuarantineStrikes: 1,
	})
	resp, m := postJSON(t, ts.URL+"/sweep", fabricSpec(tinySrc, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
	}
	sweepID := m["id"].(string)

	resp, m = postJSON(t, ts.URL+"/fabric/register", registerRequest{Worker: "liar"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d: %v", resp.StatusCode, m)
	}
	lease := uint64(m["lease"].(float64))
	poll := func(lease uint64) []cellAssignment {
		t.Helper()
		b, _ := json.Marshal(pollRequest{Worker: "liar", Lease: lease, Max: 16})
		resp, err := http.Post(ts.URL+"/fabric/poll", "application/json", bytes.NewReader(b))
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
	cells := poll(lease)
	if len(cells) == 0 {
		t.Fatal("no cells assigned")
	}

	// Ship stats that do not match their own digest: the gate must reject
	// the delivery itself (400), not just ignore it.
	body, _ := json.Marshal(map[string]any{
		"worker": "liar", "lease": lease, "sweep_id": sweepID,
		"cell": cells[0].Cell, "attempt": cells[0].Attempt,
		"stats": map[string]any{"Cycles": 5}, "digest": "00000000:1",
	})
	resp, err := http.Post(ts.URL+"/fabric/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt result = %d, want 400", resp.StatusCode)
	}
	if n := s.met.integrityFailures.Value(); n != 1 {
		t.Errorf("integrity_failures = %d, want 1", n)
	}
	if n := s.met.workersQuarantined.Value(); n != 1 {
		t.Errorf("workers_quarantined = %d, want 1", n)
	}

	// The quarantine revoked the lease: heartbeats on it get 410.
	resp, _ = postJSON(t, ts.URL+"/fabric/heartbeat", heartbeatRequest{Worker: "liar", Lease: lease})
	if resp.StatusCode != http.StatusGone {
		t.Errorf("heartbeat on quarantined lease = %d, want 410", resp.StatusCode)
	}

	// Re-admission: register again, get a fresh epoch, and find the
	// rejected cell requeued at a strictly higher attempt ordinal.
	resp, m = postJSON(t, ts.URL+"/fabric/register", registerRequest{Worker: "liar"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register = %d: %v", resp.StatusCode, m)
	}
	lease2 := uint64(m["lease"].(float64))
	if lease2 <= lease {
		t.Fatalf("re-admission lease %d does not supersede %d", lease2, lease)
	}
	requeued := poll(lease2)
	found := false
	for _, c := range requeued {
		if c.Cell == cells[0].Cell {
			found = true
			if c.Attempt <= cells[0].Attempt {
				t.Errorf("requeued attempt %d does not supersede %d", c.Attempt, cells[0].Attempt)
			}
		}
	}
	if !found {
		t.Errorf("rejected cell %s was not requeued", cells[0].Cell)
	}
}

// key is the exp.Key of one of a protocol fixture's cells.
func (f *protocolFixture) key(t *testing.T, c cellAssignment) exp.Key {
	t.Helper()
	cfg, err := c.Config.Config()
	if err != nil {
		t.Fatal(err)
	}
	return exp.KeyOf(sourceName(tinySrc, "fabric input\n", ""), cfg)
}

// checkTrueServed waits for the sweep to finish and asserts it serves
// every cell's true bytes, and that the cell journal merges to the true
// bytes too. It returns the final status.
func (f *protocolFixture) checkTrueServed(t *testing.T) map[string]any {
	t.Helper()
	st := waitDone(t, f.ts, f.id, 10*time.Second)
	results, _ := st["results"].(map[string]any)
	merged, err := exp.MergeJournals(chaos.OS{}, nil, f.s.cellJournalPath(f.id))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.cells {
		k := f.key(t, c)
		served, _ := json.Marshal(results[KeyString(k)])
		var want any
		json.Unmarshal(f.stats[c.Cell], &want)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(served, wantJSON) {
			t.Errorf("cell %s: served %s\nwant %s", c.Cell, served, wantJSON)
		}
		journaled, _ := json.Marshal(merged[k].Stats)
		if !bytes.Equal(journaled, f.stats[c.Cell]) {
			t.Errorf("cell %s: journal merges to %s\nwant %s", c.Cell, journaled, f.stats[c.Cell])
		}
	}
	return st
}

// checkResolved asserts a finished sweep's status counted at least one
// disagreement and resolved every one.
func (f *protocolFixture) checkResolved(t *testing.T, st map[string]any) {
	t.Helper()
	disagreed, _ := st["audits_disagreed"].(float64)
	resolved, _ := st["audits_resolved"].(float64)
	if disagreed < 1 || disagreed != resolved {
		t.Errorf("audits_disagreed %v, audits_resolved %v: want equal and >= 1", st["audits_disagreed"], st["audits_resolved"])
	}
	if n := f.s.met.auditsDisagreed.Value(); n != int64(disagreed) {
		t.Errorf("audits_disagreed metric %d, status %v", n, disagreed)
	}
	if failures, _ := st["integrity_failures"].(float64); failures < disagreed {
		t.Errorf("integrity_failures %v < audits_disagreed %v", failures, disagreed)
	}
}

// straggleFixture is a 2-cell sweep, on a coordinator built from cfg,
// whose worker A holds both cells at attempt 1 while worker B holds a
// straggler duplicate of the first, x, at attempt 2.
func straggleFixture(t *testing.T, cfg Config) (f *protocolFixture, x, y, bx cellAssignment) {
	t.Helper()
	cfg.StealAfter = time.Millisecond
	f = newProtocolFixtureWith(t, "A", cfg)
	x, y = f.cells[0], f.cells[1]
	time.Sleep(5 * time.Millisecond)
	f.register(t, "B")
	dup := f.poll(t, "B", 16)
	if len(dup) != 1 || dup[0].Cell != x.Cell || dup[0].Attempt != 2 || dup[0].Audit {
		t.Fatalf("B's poll = %+v, want a straggler duplicate of x at attempt 2", dup)
	}
	return f, x, y, dup[0]
}

// TestDifferingDuplicateAfterAudit: x settles with A's true bytes and C's
// audit agrees; then B's straggler duplicate of x arrives with one cycle
// more under a self-consistent digest, superseding A's record by attempt.
// Two digests for one cell are a disagreement: B's record is the winner
// replay would pick, so the sweep holds A's bytes as the candidate until a
// tie-break on C adopts them at a fresh attempt and strikes B.
func TestDifferingDuplicateAfterAudit(t *testing.T) {
	f, x, y, bx := straggleFixture(t, Config{AuditRate: 1})
	if code := f.post(t, f.trueBody(t, "A", x, x.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's x = %d", code)
	}
	f.register(t, "C")
	audit := f.poll(t, "C", 16)
	if len(audit) != 1 || audit[0].Cell != x.Cell || !audit[0].Audit {
		t.Fatalf("C's poll = %+v, want x's audit", audit)
	}
	if code := f.post(t, f.trueBody(t, "C", audit[0], audit[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("C's audit = %d", code)
	}
	if code := f.post(t, f.lieBody(t, "B", bx, bx.Attempt, false)); code != http.StatusOK {
		t.Fatalf("B's lie = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "A", y, y.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's y = %d", code)
	}
	for _, a := range f.poll(t, "C", 16) {
		if !a.Audit {
			t.Fatalf("C was handed %+v, want audits only", a)
		}
		if code := f.post(t, f.trueBody(t, "C", a, a.Attempt, true)); code != http.StatusOK {
			t.Fatalf("C's verdict on %s = %d", a.Cell, code)
		}
	}
	f.checkResolved(t, f.checkTrueServed(t))
}

// TestDifferingDuplicateWithoutAudit: with audits off, B's lie settles x
// first and A's true bytes arrive second, at a lower attempt. The
// disagreement is counted and opens a tie-break all the same, which C
// resolves for A's bytes.
func TestDifferingDuplicateWithoutAudit(t *testing.T) {
	f, x, y, bx := straggleFixture(t, Config{})
	if code := f.post(t, f.lieBody(t, "B", bx, bx.Attempt, false)); code != http.StatusOK {
		t.Fatalf("B's lie = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "A", x, x.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's x = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "A", y, y.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's y = %d", code)
	}
	f.register(t, "C")
	tie := f.poll(t, "C", 16)
	if len(tie) != 1 || tie[0].Cell != x.Cell || !tie[0].Audit {
		t.Fatalf("C's poll = %+v, want x's tie-break", tie)
	}
	if code := f.post(t, f.trueBody(t, "C", tie[0], tie[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("C's tie-break = %d", code)
	}
	f.checkResolved(t, f.checkTrueServed(t))
}

// fullDisk is the real filesystem, except that while full is set every
// write to a file whose name ends in suffix fails with nothing landed, as
// on a full disk.
type fullDisk struct {
	chaos.OS
	suffix string
	full   atomic.Bool
}

func (d *fullDisk) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := d.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(name, d.suffix) {
		return f, nil
	}
	return &fullFile{File: f, d: d}, nil
}

type fullFile struct {
	chaos.File
	d *fullDisk
}

func (f *fullFile) Write(p []byte) (int, error) {
	if f.d.full.Load() {
		return 0, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// TestRefusedAppendRequeues: a result whose journal append is refused
// answers 500 and settles nothing, and its assignment is handed out again.
// Its worker dies without redelivering; another worker runs the cell, the
// sweep finishes on the true bytes, and each cell counts once.
func TestRefusedAppendRequeues(t *testing.T) {
	disk := &fullDisk{suffix: ".cells"}
	f := newProtocolFixtureWith(t, "A", Config{Disk: disk})
	x, y := f.cells[0], f.cells[1]
	leaseA := f.lease
	disk.full.Store(true)
	if code := f.post(t, f.trueBody(t, "A", x, x.Attempt, false)); code != http.StatusInternalServerError {
		t.Fatalf("A's x on a full disk = %d, want 500", code)
	}
	disk.full.Store(false)
	if code := f.post(t, f.trueBody(t, "A", y, y.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's y = %d", code)
	}
	if got := f.doneCount(t); got != 1 {
		t.Fatalf("done = %v after a refused append, want 1", got)
	}
	f.s.coord.markDead("A", leaseA)
	f.register(t, "B")
	again := f.poll(t, "B", 16)
	if len(again) != 1 || again[0].Cell != x.Cell || again[0].Attempt <= x.Attempt {
		t.Fatalf("B's poll = %+v, want x again above attempt %d", again, x.Attempt)
	}
	if code := f.post(t, f.trueBody(t, "B", again[0], again[0].Attempt, false)); code != http.StatusOK {
		t.Fatalf("B's x = %d", code)
	}
	f.checkTrueServed(t)
	if n := f.s.met.cellsDone.Value(); n != 2 {
		t.Errorf("cells_done = %d, want 2", n)
	}
}

// TestRefusedAdoptionReopensTieBreak: a tie-break that matches the
// candidate, but whose adoption the journal refuses, answers 500 and
// resolves nothing; the tie-break is handed out again. Its worker dies
// without redelivering, and another worker's tie-break adopts the true
// bytes.
func TestRefusedAdoptionReopensTieBreak(t *testing.T) {
	disk := &fullDisk{suffix: ".cells"}
	f, x, y, bx := straggleFixture(t, Config{Disk: disk})
	if code := f.post(t, f.lieBody(t, "B", bx, bx.Attempt, false)); code != http.StatusOK {
		t.Fatalf("B's lie = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "A", x, x.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's x = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "A", y, y.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's y = %d", code)
	}
	f.register(t, "C")
	leaseC := f.lease
	tie := f.poll(t, "C", 16)
	if len(tie) != 1 || tie[0].Cell != x.Cell || !tie[0].Audit {
		t.Fatalf("C's poll = %+v, want x's tie-break", tie)
	}
	disk.full.Store(true)
	if code := f.post(t, f.trueBody(t, "C", tie[0], tie[0].Attempt, true)); code != http.StatusInternalServerError {
		t.Fatalf("C's adoption on a full disk = %d, want 500", code)
	}
	disk.full.Store(false)
	f.s.coord.markDead("C", leaseC)
	f.register(t, "D")
	again := f.poll(t, "D", 16)
	if len(again) != 1 || again[0].Cell != x.Cell || !again[0].Audit || again[0].Attempt <= tie[0].Attempt {
		t.Fatalf("D's poll = %+v, want x's tie-break again above attempt %d", again, tie[0].Attempt)
	}
	if code := f.post(t, f.trueBody(t, "D", again[0], again[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("D's tie-break = %d", code)
	}
	f.checkResolved(t, f.checkTrueServed(t))
}

// TestReplayedLieKeepsItsProducer: B's lie settles x before a coordinator
// restart, and replay restores it with its producer. After the restart A's
// honest straggler duplicate disagrees with it, so a tie-break opens, and
// it must go to a third worker: B — now a Worker whose Mangle adds one
// cycle to every result, the same lie again — is excluded and never runs
// it, and C's tie-break adopts the true bytes and strikes B.
func TestReplayedLieKeepsItsProducer(t *testing.T) {
	dir := t.TempDir()
	f, x, y, bx := straggleFixture(t, Config{JournalDir: dir})
	if code := f.post(t, f.lieBody(t, "B", bx, bx.Attempt, false)); code != http.StatusOK {
		t.Fatalf("B's lie = %d", code)
	}
	f.ts.Close()
	drain(t, f.s)

	f.s, f.ts = newTestServer(t, Config{Coordinator: true, JournalDir: dir,
		WorkerDeadAfter: time.Hour, StealAfter: time.Hour, QuarantineStrikes: 1})
	f.register(t, "C")
	cy := f.poll(t, "C", 1)
	if len(cy) != 1 || cy[0].Cell != y.Cell || cy[0].Audit {
		t.Fatalf("C's poll = %+v, want y", cy)
	}
	if code := f.post(t, f.trueBody(t, "A", x, x.Attempt, false)); code != http.StatusOK {
		t.Fatalf("A's late x = %d", code)
	}
	tap := &pollTap{}
	startTestWorker(t, f.ts, "B", WorkerOptions{SnapshotDir: t.TempDir(), Concurrency: 1,
		Client: &http.Client{Transport: tap},
		Mangle: func(_ string, s *stats.Run) *stats.Run { s.Cycles++; return s }})
	neverAudits := func() {
		t.Helper()
		for _, a := range tap.assignments() {
			if a.Audit {
				t.Fatalf("the liar B was handed %+v", a.cellAssignment)
			}
		}
	}
	waitFor2(t, 10*time.Second, func() bool { return tap.polled() > 0 })
	neverAudits()
	tie := f.poll(t, "C", 16)
	if len(tie) != 1 || tie[0].Cell != x.Cell || !tie[0].Audit {
		t.Fatalf("C's poll = %+v, want x's tie-break", tie)
	}
	if code := f.post(t, f.trueBody(t, "C", tie[0], tie[0].Attempt, true)); code != http.StatusOK {
		t.Fatalf("C's tie-break = %d", code)
	}
	if code := f.post(t, f.trueBody(t, "C", cy[0], cy[0].Attempt, false)); code != http.StatusOK {
		t.Fatalf("C's y = %d", code)
	}
	f.checkResolved(t, f.checkTrueServed(t))
	neverAudits()
	if n := f.s.met.workersQuarantined.Value(); n != 1 {
		t.Errorf("workers_quarantined = %d, want 1 (B struck by the tie-break)", n)
	}
}
