package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
)

// pollTap is a worker's transport that records every assignment its polls
// receive and delays each result delivery by delay.
type pollTap struct {
	delay time.Duration

	mu    sync.Mutex
	polls int
	got   []tapped
}

// tapped is one assignment a tapped worker received, with its sweep.
type tapped struct {
	sweep string
	cellAssignment
}

func (p *pollTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/fabric/result" {
		time.Sleep(p.delay)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/fabric/poll" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var pr pollResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.polls++
	for _, a := range pr.Cells {
		p.got = append(p.got, tapped{pr.SweepID, a})
	}
	return resp, nil
}

// polled counts the polls answered so far.
func (p *pollTap) polled() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// assignments returns every assignment received so far.
func (p *pollTap) assignments() []tapped {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.got)
}

// drain drains s, as a deploy does.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// epochs lists the crash epochs recorded in dir's request journal, in order.
func epochs(t *testing.T, dir string) []int {
	t.Helper()
	var got []int
	err := exp.ReplayJournal(chaos.OS{}, filepath.Join(dir, "requests.journal"), func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Op == "epoch" {
			got = append(got, rec.Epoch)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRestartEpochs: drain the coordinator twice mid-sweep. Each boot that
// resumes the sweep records the next crash epoch, and every attempt it
// hands out exceeds every attempt of the boots before it — including the
// one a ghost worker took and never delivered. A sweep accepted after a
// restart starts at attempt 1, no assignment journal is written, and both
// sweeps finish on the reference bytes.
func TestRestartEpochs(t *testing.T) {
	spec := fabricSpec(tinySrc, 3)
	fresh := fabricSpec(tinySrc, 1)
	fresh.In0 = "fresh input\n"
	dir := t.TempDir()
	cfg := Config{Coordinator: true, JournalDir: dir, WorkerDeadAfter: time.Hour, StealAfter: time.Hour}
	var id, freshID string
	earlier := 0 // the largest attempt any earlier boot handed out
	for boot := 0; boot < 3; boot++ {
		s, ts := newTestServer(t, cfg)
		if want := []int{1, 2}[:boot]; !slices.Equal(epochs(t, dir), want) {
			t.Fatalf("boot %d: request journal epochs %v, want %v", boot, epochs(t, dir), want)
		}
		var attempts []int
		switch boot {
		case 0:
			resp, m := postJSON(t, ts.URL+"/sweep", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("sweep = %d: %v", resp.StatusCode, m)
			}
			id = m["id"].(string)
		case 2:
			resp, m := postJSON(t, ts.URL+"/sweep", fresh)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("fresh sweep = %d: %v", resp.StatusCode, m)
			}
			freshID = m["id"].(string)
		}
		if boot < 2 {
			// The ghost holds one cell for the rest of the boot, so the sweep
			// stays unfinished; its assignment is never delivered.
			ghost := &protocolFixture{ts: ts}
			ghost.register(t, "ghost")
			for _, a := range ghost.poll(t, "ghost", 1) {
				attempts = append(attempts, a.Attempt)
			}
		}
		tap := &pollTap{delay: 20 * time.Millisecond}
		_, stop := startTestWorker(t, ts, fmt.Sprintf("w%d", boot), WorkerOptions{SnapshotDir: t.TempDir(),
			Concurrency: 1, Client: &http.Client{Transport: tap}})
		switch boot {
		case 0, 1:
			want := []float64{2, 5}[boot] // boot 1 runs all but the ghost's cell
			waitFor2(t, 60*time.Second, func() bool {
				_, st := getJSON(t, ts.URL+"/sweep/"+id)
				return st["done"].(float64) >= want
			})
		case 2:
			for _, sid := range []string{id, freshID} {
				if st := waitDone(t, ts, sid, 60*time.Second); st["state"] != "done" {
					t.Fatalf("sweep %s state %v: %v", sid, st["state"], st["error"])
				}
			}
		}
		stop()
		for _, a := range tap.assignments() {
			if a.sweep == id {
				attempts = append(attempts, a.Attempt)
			} else if a.Attempt != 1 {
				t.Errorf("fresh sweep's cell %s handed out at attempt %d, want 1", a.Cell, a.Attempt)
			}
		}
		if len(attempts) == 0 {
			t.Fatalf("boot %d handed out no attempts", boot)
		}
		if low := slices.Min(attempts); low <= earlier {
			t.Fatalf("boot %d handed out attempt %d, not above attempt %d of an earlier boot", boot, low, earlier)
		}
		earlier = slices.Max(attempts)
		if boot == 2 {
			_, st := getJSON(t, ts.URL+"/sweep/"+id)
			if got, control := resultsOf(t, st), referenceResults(t, spec, 0); !bytes.Equal(got, control) {
				t.Errorf("resumed results differ from control\ngot:     %s\ncontrol: %s", got, control)
			}
			_, st = getJSON(t, ts.URL+"/sweep/"+freshID)
			if got, control := resultsOf(t, st), referenceResults(t, fresh, 0); !bytes.Equal(got, control) {
				t.Errorf("fresh results differ from control\ngot:     %s\ncontrol: %s", got, control)
			}
		}
		ts.Close()
		drain(t, s)
	}
	if assign, _ := filepath.Glob(filepath.Join(dir, "*.assign")); len(assign) > 0 {
		t.Errorf("assignment journals written: %v", assign)
	}
}

// TestRefusedEpochAppend: a boot whose disk refuses request-journal writes
// after the replay cannot record its crash epoch, so New fails and nothing
// resumes. Once the disk heals, the next boot resumes the sweep under an
// epoch above every earlier one and finishes it there.
func TestRefusedEpochAppend(t *testing.T) {
	dir := t.TempDir()
	spec := fabricSpec(tinySrc, 1)
	path := filepath.Join(dir, "requests.journal")
	appendAccept(t, path, "resumed", &spec)
	appendRecord(t, path, journalRecord{Op: "epoch", Epoch: 3}) // an earlier boot's
	disk := &fullDisk{suffix: "requests.journal"}
	disk.full.Store(true)
	if s, err := New(Config{JournalDir: dir, Disk: disk}); err == nil {
		drain(t, s)
		t.Fatal("New succeeded without recording its crash epoch")
	}
	if got := epochs(t, dir); !slices.Equal(got, []int{3}) {
		t.Errorf("epochs after a refused append %v, want [3]", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep-resumed.cells")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused boot resumed the sweep: %v", err)
	}

	disk.full.Store(false)
	s, ts := newTestServer(t, Config{JournalDir: dir, Disk: disk})
	if got := epochs(t, dir); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("epochs after the healed boot %v, want [3 4]", got)
	}
	st := waitDone(t, ts, "resumed", 60*time.Second)
	if got, control := resultsOf(t, st), referenceResults(t, spec, 0); !bytes.Equal(got, control) {
		t.Errorf("resumed results differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
	merged, err := exp.MergeJournals(chaos.OS{}, nil, s.cellJournalPath("resumed"))
	if err != nil {
		t.Fatal(err)
	}
	for k, rec := range merged {
		if rec.Attempt <= epochBase(4) {
			t.Errorf("cell %s settled at attempt %d, not above epoch 4's base %d", KeyString(k), rec.Attempt, epochBase(4))
		}
	}
}

// TestParentJournalResumes: testdata/parent-journal is a coordinator's
// journal directory captured mid-sweep from the previous format — its
// request journal, a cell journal whose records name no worker, and the
// sweep-<id>.assign assignment journal that format kept (one cell settled
// at attempt 2, the other handed out up to attempt 3). It resumes under
// crash epoch 1 with the settled cell restored; the .assign file is
// ignored, every attempt handed out exceeds every attempt it records, and
// the sweep finishes on the reference bytes.
func TestParentJournalResumes(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent-journal/*")
	if err != nil || len(files) != 3 {
		t.Fatalf("testdata/parent-journal holds %v (%v), want 3 files", files, err)
	}
	var id string
	mark := 0
	for _, f := range files {
		copyFile(t, f, filepath.Join(dir, filepath.Base(f)))
		name, ok := strings.CutSuffix(filepath.Base(f), ".assign")
		if !ok {
			continue
		}
		id = strings.TrimPrefix(name, "sweep-")
		exp.ReplayJournal(chaos.OS{}, f, func(line []byte) error {
			var rec struct{ Cells []struct{ Attempt int } }
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			for _, c := range rec.Cells {
				mark = max(mark, c.Attempt)
			}
			return nil
		})
	}
	recs, _, err := pendingJobs(chaos.OS{}, filepath.Join(dir, "requests.journal"))
	if err != nil || len(recs) != 1 || recs[0].ID != id || mark == 0 {
		t.Fatalf("captured journal: pending %+v (%v), sweep %q, mark %d", recs, err, id, mark)
	}
	control := referenceResults(t, *recs[0].Spec, 0)

	s, ts := newTestServer(t, Config{Coordinator: true, JournalDir: dir, WorkerDeadAfter: time.Hour, StealAfter: time.Hour})
	if got := epochs(t, dir); !slices.Equal(got, []int{1}) {
		t.Fatalf("epochs %v, want [1]", got)
	}
	if n := s.met.cellsRestored.Value(); n != 1 {
		t.Errorf("cells_restored = %d, want 1", n)
	}
	tap := &pollTap{}
	startTestWorker(t, ts, "w", WorkerOptions{SnapshotDir: t.TempDir(), Concurrency: 1, Client: &http.Client{Transport: tap}})
	st := waitDone(t, ts, id, 60*time.Second)
	if got := resultsOf(t, st); !bytes.Equal(got, control) {
		t.Errorf("resumed results differ from control\ngot:     %s\ncontrol: %s", got, control)
	}
	got := tap.assignments()
	if len(got) == 0 {
		t.Fatal("the resumed sweep handed out nothing")
	}
	for _, a := range got {
		if a.Attempt <= mark {
			t.Errorf("cell %s handed out at attempt %d, not above the old assignment journal's %d", a.Cell, a.Attempt, mark)
		}
	}
}
