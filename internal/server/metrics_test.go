package server

import (
	"sync"
	"testing"
	"time"
)

// TestMetricsConcurrentRecording hammers every counter-mutating path while
// snapshot renders, so `go test -race` certifies the /metrics surface: the
// expvar counters, the latency histogram, and the render itself may all run
// concurrently in the live server (per-cell observers vs. HTTP handlers).
func TestMetricsConcurrentRecording(t *testing.T) {
	var m metrics
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.observeCell(1+i%3, i%2 == 0, time.Duration(w+1)*time.Millisecond)
				m.cellsRestored.Add(1)
				m.shed.Add(1)
				m.cellsStolen.Add(1)
				m.cellsRequeued.Add(1)
				m.workersDead.Add(1)
				m.snapshotsShipped.Add(1)
				m.auditsRun.Add(1)
				m.auditsDisagreed.Add(1)
				m.integrityFailures.Add(1)
				m.workersQuarantined.Add(1)
				m.scrubPasses.Add(1)
				m.scrubRepaired.Add(1)
				m.scrubQuarantined.Add(1)
				m.scrubCorruptRecords.Add(1)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.snapshot(3, 2, 1, 0)
				cells := snap["cells_done"].(int64) + snap["cells_failed"].(int64)
				if cells < 0 || cells > 2000 {
					t.Errorf("cell counters out of range: %d", cells)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	snap := m.snapshot(0, 0, 0, 0)
	cells := snap["cells_done"].(int64) + snap["cells_failed"].(int64)
	if cells != 2000 {
		t.Errorf("settled cells = %d, want 2000", cells)
	}
	// Cell i took 1+i%3 attempts: Σ i%3 over [0, 500) is 499 retries per
	// goroutine.
	if got := snap["retries"].(int64); got != 4*499 {
		t.Errorf("retries = %d, want %d", got, 4*499)
	}
	for _, k := range []string{"cells_restored", "cells_stolen", "cells_requeued", "workers_dead", "snapshots_shipped",
		"audits_run", "audits_disagreed", "integrity_failures", "workers_quarantined",
		"scrub_passes", "scrub_repaired", "scrub_quarantined", "scrub_corrupt_records"} {
		if got := snap[k].(int64); got != 2000 {
			t.Errorf("%s = %d, want 2000", k, got)
		}
	}
	// Only successful cells (every other one) feed the latency histogram.
	if lat := snap["run_latency_us"].(map[string]any); lat["count"].(int64) != 1000 {
		t.Errorf("latency count = %v, want 1000", lat["count"])
	}
}
