package server

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sync/atomic"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
	"fgpsim/internal/stats"
)

// shipRetries counts snapshot-ship delivery attempts beyond the first,
// process-wide: workers are not Servers, so the counter cannot live on a
// per-server metrics struct, and a coordinator's /metrics reporting every
// co-resident worker's retries is exactly what an operator wants to see.
var shipRetries atomic.Int64

// metrics is the daemon's observability surface, served as expvar-style
// JSON on /metrics. Counters are expvar vars held on the struct (not
// published to the process-global expvar map, so tests can build as many
// servers as they like); gauges are sampled at render time; run latency is
// a stats.Hist reporting p50/p99 the way the paper's harness reports
// block-size percentiles.
type metrics struct {
	shed          expvar.Int // requests rejected 429 (/run admission, /sweep backlog)
	retries       expvar.Int // extra simulation attempts across sweep cells
	runsOK        expvar.Int // successful /run simulations
	runsFailed    expvar.Int // failed /run simulations (any non-200)
	jobsAccepted  expvar.Int // sweeps admitted (202)
	jobsResumed   expvar.Int // sweeps re-enqueued from the request journal
	jobsDone      expvar.Int // sweeps that reached a terminal state
	cellsDone     expvar.Int // sweep cells completed by simulation
	cellsRestored expvar.Int // sweep cells restored from a cell journal
	cellsFailed   expvar.Int // sweep cells quarantined after retries

	// Fabric counters.
	cellsStolen      expvar.Int // cells run by a worker other than their shard owner
	cellsRequeued    expvar.Int // cell assignments returned to pending (death, supersede, drain)
	workersDead      expvar.Int // workers declared dead by the liveness watchdog
	snapshotsShipped expvar.Int // mid-run snapshots received from workers

	// Integrity counters (DESIGN.md §17).
	auditsRun          expvar.Int // re-execution audits that reached a first verdict
	auditsDisagreed    expvar.Int // audits whose digest differed from the winner's
	integrityFailures  expvar.Int // rejected records: digest gate, journal verify, audit disagreement
	workersQuarantined expvar.Int // workers quarantined past the strike threshold

	// Scrubber counters (scrub.go).
	scrubPasses         expvar.Int // completed background scrub passes
	scrubRepaired       expvar.Int // snapshot files repaired from their .prev
	scrubQuarantined    expvar.Int // files quarantined (renamed *.quarantined)
	scrubCorruptRecords expvar.Int // journal records failing digest verification

	latency stats.Hist // per-simulation wall clock (/run and sweep cells)
}

// observeCell folds the first settlement of one sweep cell into the
// counters, with the attempts and wall time its worker reported; only a
// successful cell's wall time feeds the latency histogram.
func (m *metrics) observeCell(attempts int, ok bool, d time.Duration) {
	if ok {
		m.cellsDone.Add(1)
		m.latency.Observe(d)
	} else {
		m.cellsFailed.Add(1)
	}
	if attempts > 1 {
		m.retries.Add(int64(attempts - 1))
	}
}

// countIntegrity adds the audit and rejection counts a sweep transition
// moved from before to after.
func (m *metrics) countIntegrity(before, after integrity) {
	m.auditsRun.Add(int64(after.auditsRun - before.auditsRun))
	m.auditsDisagreed.Add(int64(after.auditsDisagreed - before.auditsDisagreed))
	m.integrityFailures.Add(int64(after.failures - before.failures))
}

// snapshot renders every metric; queueDepth, inflight, workersLive and
// watchdogKills are sampled from the server's parts.
func (m *metrics) snapshot(queueDepth int64, inflight, workersLive int, watchdogKills int64) map[string]any {
	return map[string]any{
		"queue_depth":       queueDepth,
		"inflight":          inflight,
		"workers_live":      workersLive,
		"shed_total":        m.shed.Value(),
		"watchdog_kills":    watchdogKills,
		"retries":           m.retries.Value(),
		"runs_ok":           m.runsOK.Value(),
		"runs_failed":       m.runsFailed.Value(),
		"jobs_accepted":     m.jobsAccepted.Value(),
		"jobs_resumed":      m.jobsResumed.Value(),
		"jobs_done":         m.jobsDone.Value(),
		"cells_done":        m.cellsDone.Value(),
		"cells_restored":    m.cellsRestored.Value(),
		"cells_failed":      m.cellsFailed.Value(),
		"cells_stolen":      m.cellsStolen.Value(),
		"cells_requeued":    m.cellsRequeued.Value(),
		"workers_dead":      m.workersDead.Value(),
		"snapshots_shipped": m.snapshotsShipped.Value(),

		// Integrity counters (DESIGN.md §17).
		"audits_run":            m.auditsRun.Value(),
		"audits_disagreed":      m.auditsDisagreed.Value(),
		"integrity_failures":    m.integrityFailures.Value(),
		"workers_quarantined":   m.workersQuarantined.Value(),
		"scrub_passes":          m.scrubPasses.Value(),
		"scrub_repaired":        m.scrubRepaired.Value(),
		"scrub_quarantined":     m.scrubQuarantined.Value(),
		"scrub_corrupt_records": m.scrubCorruptRecords.Value(),

		// Failure-model counters (DESIGN.md §16). The first two stay useful
		// in production — a nonzero journal_fsync_failures is an operator
		// page. chaos_faults_injected is zero outside chaos runs by
		// construction: only a chaos.FS / chaos.Transport increments it, and
		// production servers never mount one.
		"journal_fsync_failures": exp.JournalFsyncFailures(),
		"ship_retries":           shipRetries.Load(),
		"chaos_faults_injected":  chaos.Injected(),
		"run_latency_us": map[string]any{
			"count": m.latency.Count(),
			"mean":  m.latency.Mean().Microseconds(),
			"p50":   m.latency.Quantile(0.50).Microseconds(),
			"p99":   m.latency.Quantile(0.99).Microseconds(),
		},
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
