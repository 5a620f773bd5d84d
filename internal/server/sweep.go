package server

import (
	"slices"
	"time"

	"fgpsim/internal/exp"
	"fgpsim/internal/stats"
)

// A sweep is one accepted sweep and the authoritative state of its cells:
// which are pending, which are in flight under which assignments, and
// which are settled with what winning result. The coordinator's mutex
// guards it (coordinator.go). Every transition is a method here that takes
// and returns plain values and does no I/O: the HTTP handlers decode and
// check the lease, run one transition, journal what it says to journal
// (outside the lock, before the acknowledgement), then apply the rest of
// its outcome — wake held polls, strike a worker, count — and respond.
type sweep struct {
	id      string
	spec    SweepSpec
	state   string // jobRunning, jobDone, jobFailed or jobInterrupted
	errText string

	cells map[string]*cell
	order []string // cell ids in grid order (prepared outer, configs inner)

	// cellJournal holds winning results (exp.AppendCell records); nil when
	// persistence is off. exp.Journal repairs a failed fsync itself and
	// refuses appends once the sweep closes it.
	cellJournal *exp.Journal

	auditRate  float64
	stealAfter time.Duration

	pendingN   int
	doneN      int
	failedN    int
	auditsOpen int // audits and tie-breaks awaiting a verdict
	appending  int // deliveries handed out to journal, not yet confirmed or refused
	finished   bool
	counts     integrity
}

// integrity counts a sweep's audit verdicts and rejected deliveries
// (DESIGN.md §17).
type integrity struct {
	auditsRun, auditsDisagreed, auditsResolved, failures int
}

type cellState int

const (
	cellPending cellState = iota
	cellInflight
	cellDone
	cellFailed
)

// auditState tracks a done cell's re-execution audit (DESIGN.md §17). An
// audit is in flight while the cell has an audit assignee.
type auditState int

const (
	auditNone    auditState = iota
	auditOpen               // sampled; waiting for the first verdict
	tiebreakOpen            // two digests disagree; waiting for a third execution
	auditDone
)

// cell is one grid cell.
type cell struct {
	id    string // exp.CellID — the wire identity
	bench string // "" = the sweep's Source program
	spec  ConfigSpec
	key   exp.Key
	shard uint64 // exp.ShardKey — image-cache affinity on the ring

	state     cellState
	attempt   int // the last attempt handed out (the epoch base, after replay)
	assignees []assignee
	errText   string // the failure of a failed cell

	// win is a done cell's winner: of the results journaled for the cell,
	// the greatest under exp.Supersedes, so replay picks it too, producer
	// and all (a record of the previous format names no producer).
	win result

	// cand is held against win while a tie-break is open. excl lists the
	// workers that may not run the next audit or tie-break: the producers
	// of the disputed results, and tie-breakers that matched neither.
	audit auditState
	cand  result
	excl  []string
}

// result is one delivered success.
type result struct {
	worker  string
	attempt int
	digest  string // exp.DigestStats of stats
	stats   *stats.Run
}

// beats reports whether r replaces winner w under exp.Supersedes; records
// equal in attempt and digest are one result.
func (r result) beats(w result) bool {
	return (r.attempt != w.attempt || r.digest != w.digest) && exp.Supersedes(w.attempt, w.digest, r.attempt, r.digest)
}

// assignee is one outstanding assignment of a cell; an auditor is an
// assignee marked as an audit.
type assignee struct {
	worker  string
	lease   uint64
	attempt int
	at      time.Time
	audit   bool
}

// delivery is one result that passed the ingest digest gate: a success
// (stats set) or a failure (err set).
type delivery struct {
	result
	err   string
	audit bool
}

// of reports whether a is the assignment that produced d.
func (d delivery) of(a assignee) bool {
	return a.worker == d.worker && a.attempt == d.attempt && a.audit == d.audit
}

// outcome is what a transition leaves its caller to do.
type outcome struct {
	journal  bool   // append the delivery to the cell journal, then call journaled
	late     bool   // the delivery is for an assignment that moved on
	settled  bool   // the cell settled (done or failed) for the first time
	wake     bool   // new work is pickable: release held polls
	strike   string // a worker to charge an integrity strike
	requeued int    // assignments returned to pending
}

// newSweep enumerates a validated spec's cells in grid order, all pending.
// A configuration repeated in the spec is one cell.
func newSweep(id string, spec SweepSpec, auditRate float64, stealAfter time.Duration) (*sweep, error) {
	sw := &sweep{id: id, spec: spec, state: jobRunning, cells: make(map[string]*cell),
		auditRate: auditRate, stealAfter: stealAfter}
	benches := spec.Benches
	if len(benches) == 0 {
		benches = []string{""}
	}
	for _, b := range benches {
		name := b
		if name == "" {
			name = sourceName(spec.Source, spec.In0, spec.In1)
		}
		for _, cs := range spec.Configs {
			cfg, err := cs.Config()
			if err != nil {
				return nil, err // unreachable: validated at accept
			}
			key := exp.KeyOf(name, cfg)
			c := &cell{id: exp.CellID(key), bench: b, spec: cs, key: key, shard: exp.ShardKey(name, cfg)}
			if sw.cells[c.id] == nil {
				sw.cells[c.id] = c
				sw.order = append(sw.order, c.id)
			}
		}
	}
	sw.pendingN = len(sw.order)
	return sw, nil
}

// replay restores a fresh sweep from its cell journal's merged records —
// each cell's winner and its producer — and starts every cell's attempts
// at base, which a resumed sweep's crash epoch puts above every attempt an
// earlier boot handed out, so post-restart assignments supersede
// pre-restart ones. It returns the number of cells restored. A restored
// cell is never audited: audits are in-memory, and a restart finishes on
// its journaled results, which is safe because audits gate detection,
// never correctness.
func (sw *sweep) replay(winners map[exp.Key]exp.CellRecord, base int) int {
	restored := 0
	for _, id := range sw.order {
		c := sw.cells[id]
		c.attempt = base
		rec, ok := winners[c.key]
		if !ok {
			continue
		}
		c.state = cellDone
		c.win = result{worker: rec.Worker, attempt: rec.Attempt, digest: rec.Digest, stats: rec.Stats}
		c.attempt = max(c.attempt, rec.Attempt)
		sw.pendingN--
		sw.doneN++
		restored++
	}
	return restored
}

// Work stealing keeps the fabric's tail short. Shard affinity (the
// consistent-hash ring over image-cache keys) is a throughput
// optimization, not a correctness constraint, so pick treats it as a
// preference with two escape hatches:
//
//  1. an idle worker whose own shard is drained takes any pending cell —
//     a cell queued for a busy (or not-yet-registered) peer is better run
//     cold on the wrong worker than not at all;
//  2. when nothing is pending, an idle worker duplicates the oldest
//     in-flight assignment that has been out longer than StealAfter — the
//     straggler may be on a slow, wedged, or silently dying worker, and a
//     duplicate costs one redundant simulation while an undetected
//     straggler costs the whole sweep's tail. Honest duplicates are
//     byte-identical, so racing the original is always safe.

// maxDuplicates bounds how many workers may race one straggling cell
// (the original assignee plus duplicates). Beyond this the cell is far
// more likely deterministic-slow than victim-of-a-slow-worker, and more
// copies only burn cycles.
const maxDuplicates = 3

// pick hands worker (under lease) up to max cells, each under a fresh
// attempt: its own shard on ring first, then anything pending (counted in
// stolen when another member owns it), then audits and tie-breaks it is
// eligible for, and only when all of that is empty one straggler
// duplicate (counted in stolen).
func (sw *sweep) pick(worker string, lease uint64, max int, now time.Time, ring *exp.Ring) (picked []cellAssignment, stolen int) {
	assign := func(c *cell, audit bool) {
		if c.state == cellPending {
			c.state = cellInflight
			sw.pendingN--
		}
		c.attempt++
		c.assignees = append(c.assignees, assignee{worker: worker, lease: lease, attempt: c.attempt, at: now, audit: audit})
		picked = append(picked, cellAssignment{Cell: c.id, Bench: c.bench, Config: c.spec, Attempt: c.attempt, Audit: audit})
	}
	for _, own := range []bool{true, false} {
		for _, id := range sw.order {
			if len(picked) >= max || sw.pendingN == 0 {
				break
			}
			c := sw.cells[id]
			if c.state != cellPending {
				continue
			}
			owner := ring.Owner(c.shard)
			if own && owner != worker {
				continue
			}
			if owner != "" && owner != worker {
				stolen++
			}
			assign(c, false)
		}
	}
	for _, id := range sw.order {
		if sw.auditsOpen == 0 || len(picked) >= max {
			break
		}
		if c := sw.cells[id]; c.auditable(worker, ring) {
			assign(c, true)
		}
	}
	if len(picked) == 0 {
		if c := sw.straggler(worker, now); c != nil {
			stolen++
			assign(c, false)
		}
	}
	return picked, stolen
}

// auditable reports whether worker may take c's open audit or tie-break
// now. Anti-affinity is the whole point of re-execution, so the excluded
// workers may not — unless every ring member is excluded (a one-worker
// fabric), where the rule relaxes rather than deadlocking the sweep: a
// self-audit still catches nondeterministic corruption (bad RAM, transit
// flips), just not a consistently lying worker.
func (c *cell) auditable(worker string, ring *exp.Ring) bool {
	if (c.audit != auditOpen && c.audit != tiebreakOpen) || c.auditing() {
		return false
	}
	if !c.excluded(worker) {
		return true
	}
	for _, id := range ring.Nodes() {
		if !c.excluded(id) {
			return false // an eligible worker exists; wait for it
		}
	}
	return true
}

func (c *cell) excluded(worker string) bool {
	for _, e := range c.excl {
		if e == worker {
			return true
		}
	}
	return false
}

// auditing reports whether c's audit or tie-break is in flight.
func (c *cell) auditing() bool {
	for _, a := range c.assignees {
		if a.audit {
			return true
		}
	}
	return false
}

// straggler finds the in-flight cell whose most recent assignment is the
// stalest beyond stealAfter, excluding cells worker already holds and
// cells already raced by maxDuplicates workers.
func (sw *sweep) straggler(worker string, now time.Time) *cell {
	var best *cell
	var bestAge time.Duration
	for _, id := range sw.order {
		c := sw.cells[id]
		if c.state != cellInflight || len(c.assignees) == 0 || len(c.assignees) >= maxDuplicates {
			continue
		}
		newest := c.assignees[0].at
		mine := false
		for _, a := range c.assignees {
			if a.at.After(newest) {
				newest = a.at
			}
			mine = mine || a.worker == worker
		}
		if age := now.Sub(newest); !mine && age >= sw.stealAfter && age > bestAge {
			best, bestAge = c, age
		}
	}
	return best
}

// drop removes the assignments gone selects, returning whether any was an
// audit; an in-flight cell left with none requeues.
func (sw *sweep) drop(c *cell, gone func(assignee) bool) (audit bool, requeued int) {
	n := c.assignees[:0]
	for _, a := range c.assignees {
		if gone(a) {
			audit = audit || a.audit
		} else {
			n = append(n, a)
		}
	}
	c.assignees = n
	if c.state == cellInflight && len(n) == 0 {
		c.state = cellPending
		sw.pendingN++
		requeued = 1
	}
	return audit, requeued
}

// release drops the assignments gone selects from c and says what that
// leaves to do: an in-flight cell left with none requeues, and a dropped
// audit waits for another worker.
func (sw *sweep) release(c *cell, gone func(assignee) bool) outcome {
	audit, n := sw.drop(c, gone)
	return outcome{requeued: n, wake: audit || n > 0}
}

// dropLease removes every assignment of (worker, lease) — the worker died,
// re-registered, deregistered or was quarantined. Cells left unclaimed
// requeue, and audits in flight on it wait for another worker. The caller
// wakes held polls.
func (sw *sweep) dropLease(worker string, lease uint64) (requeued int) {
	for _, id := range sw.order {
		_, n := sw.drop(sw.cells[id], func(a assignee) bool { return a.worker == worker && a.lease == lease })
		requeued += n
	}
	return requeued
}

// reject handles a delivery whose body failed the digest gate: the bytes
// changed between the worker's engine and the coordinator. Nothing is
// journaled; the producing assignment is dropped (requeueing the cell, or
// reopening the audit) and the sender is struck.
func (sw *sweep) reject(cellID, worker string, attempt int) outcome {
	sw.counts.failures++
	var out outcome
	if c := sw.cells[cellID]; c != nil {
		out = sw.release(c, func(a assignee) bool { return a.worker == worker && a.attempt == attempt })
	}
	out.strike = worker
	return out
}

// deliver folds one delivery into cell c under exp.Supersedes, the order
// the journal merge uses, so duplicate and late deliveries and replayed
// journals all converge on the same winner. A success that would become
// the winner — the cell's first, one that beats the winner, or a
// tie-break's adoption — is journaled before it counts: deliver leaves the
// cell as it is and asks for the append, and journaled folds the delivery
// once the record is confirmed.
func (sw *sweep) deliver(c *cell, d delivery) outcome {
	if d.audit {
		return sw.verdict(c, d)
	}
	if d.stats != nil && (c.state != cellDone || d.beats(c.win)) {
		sw.appending++
		return outcome{journal: true}
	}
	return sw.settle(c, d)
}

// journaled folds a delivery deliver asked to journal, once its append is
// confirmed (ok) or refused. A refused record changes nothing but its
// assignment, which is dropped — requeueing the cell, or reopening the
// audit — so that the work is handed out again even if its worker never
// redelivers. A confirmed record folds into whatever the cell has become
// meanwhile, as replay would fold it: as the adoption of the tie-break
// that still waits on it, or else as a plain result.
func (sw *sweep) journaled(c *cell, d delivery, ok bool) outcome {
	sw.appending--
	if !ok {
		return sw.release(c, d.of)
	}
	if d.audit && c.audit == tiebreakOpen && d.digest == c.cand.digest && slices.ContainsFunc(c.assignees, d.of) {
		// The third execution matched the candidate against the winner:
		// the candidate's bytes win, under the tie-break's fresh attempt so
		// a replay supersedes the corrupt record, and the winner's producer
		// is struck.
		sw.drop(c, d.of)
		out := outcome{wake: true, strike: c.win.worker}
		c.win, c.audit, c.cand = d.result, auditDone, result{}
		sw.auditsOpen--
		sw.counts.auditsResolved++
		return out
	}
	return sw.settle(c, d)
}

// settle folds a failure, or a success that is journaled or cannot beat
// the winner, into cell c.
func (sw *sweep) settle(c *cell, d delivery) outcome {
	var out outcome
	sw.drop(c, d.of)
	if d.stats == nil {
		// A failure settles the cell only if nothing has: a duplicate may
		// still land a success and flip it.
		if c.state == cellDone || c.state == cellFailed {
			return out
		}
		if c.state == cellPending {
			sw.pendingN--
		}
		c.state, c.errText = cellFailed, d.err
		sw.failedN++
		out.settled = true
		return out
	}
	switch c.state {
	case cellDone:
		return sw.duplicate(c, d.result)
	case cellFailed:
		// A success beats a quarantined failure: the failure was
		// environmental, since the deterministic simulator cannot both fail
		// and succeed on the same cell.
		sw.failedN--
		c.errText = ""
	case cellPending:
		sw.pendingN--
	}
	c.state, c.win = cellDone, d.result
	sw.doneN++
	out.settled = true
	if sw.auditRate > 0 && c.audit == auditNone && auditSampled(sw.id, c.id, sw.auditRate) {
		c.audit, c.excl = auditOpen, []string{d.worker}
		sw.auditsOpen++
		out.wake = true
	}
	return out
}

// duplicate folds a second success into done cell c; one that beats the
// winner comes here only once journaled. A byte-identical one changes at
// most the winner's attempt. Two different digests for one cell are a
// disagreement, whatever the audit rate: the winner stays the
// exp.Supersedes winner, as replay would pick it, the other result becomes
// the candidate, and a tie-break on a third worker decides between them.
func (sw *sweep) duplicate(c *cell, r result) outcome {
	var out outcome
	if r.digest == c.win.digest {
		if r.beats(c.win) {
			c.win = r
		}
		return out
	}
	if c.audit != tiebreakOpen {
		sw.counts.auditsDisagreed++
		sw.counts.failures++
		if c.audit != auditOpen {
			sw.auditsOpen++
		}
		c.excl = nil
	}
	if r.beats(c.win) {
		c.win, r = r, c.win
	}
	c.audit, c.cand = tiebreakOpen, r
	c.excl = append(c.excl, c.win.worker, c.cand.worker)
	// The dispute changed under any audit in flight: its verdict would
	// answer a different question, so it is dropped and re-picked.
	sw.drop(c, func(a assignee) bool { return a.audit })
	out.wake = true
	return out
}

// verdict folds an audit re-execution into c's audit. First audit: digests
// agree → done; disagree → hold the auditor's result as the candidate and
// open a tie-break. Tie-break: whichever of winner and candidate the third
// execution matches stands, and the other's producer is struck; matching
// the candidate is an adoption, journaled first (journaled). Matching
// neither excludes the tie-breaker and re-runs the tie-break.
func (sw *sweep) verdict(c *cell, d delivery) outcome {
	var out outcome
	if !slices.ContainsFunc(c.assignees, d.of) {
		out.late = true // the audit moved on without this delivery
		return out
	}
	if d.stats != nil && c.audit == tiebreakOpen && d.digest == c.cand.digest {
		sw.appending++
		return outcome{journal: true}
	}
	sw.drop(c, d.of)
	out.wake = true
	if d.stats == nil {
		return out // environmental failure, not a verdict: another worker re-runs it
	}
	switch c.audit {
	case auditOpen:
		sw.counts.auditsRun++
		if d.digest == c.win.digest {
			c.audit = auditDone
			sw.auditsOpen--
			return out
		}
		sw.counts.auditsDisagreed++
		sw.counts.failures++
		c.audit, c.cand, c.excl = tiebreakOpen, d.result, []string{c.win.worker, d.worker}
	case tiebreakOpen:
		if d.digest != c.win.digest {
			c.excl = append(c.excl, d.worker)
			return out
		}
		out.strike = c.cand.worker
		c.audit, c.cand = auditDone, result{}
		sw.auditsOpen--
		sw.counts.auditsResolved++
	}
	return out
}

// settled reports the sweep ready to finish: every cell done or failed,
// every audit and tie-break resolved, and no append in flight.
func (sw *sweep) settled() bool {
	return sw.doneN+sw.failedN == len(sw.order) && sw.auditsOpen == 0 && sw.appending == 0
}

// finish marks a settled running sweep finished, reporting whether the
// caller must now finish it (coordinator.finishSweep).
func (sw *sweep) finish() bool {
	if sw.finished || sw.state != jobRunning || !sw.settled() {
		return false
	}
	sw.finished = true
	return true
}

// status renders GET /sweep/{id} from the cells. Failures are listed in
// grid order, independent of delivery interleaving; results and their
// digests appear once the sweep is done (or could not start).
func (sw *sweep) status() jobStatus {
	st := jobStatus{ID: sw.id, State: sw.state, Done: sw.doneN, Total: len(sw.order), Error: sw.errText,
		AuditsRun: sw.counts.auditsRun, AuditsDisagreed: sw.counts.auditsDisagreed,
		AuditsResolved: sw.counts.auditsResolved, IntegrityFailures: sw.counts.failures}
	final := sw.state == jobDone || sw.state == jobFailed
	if final && sw.doneN > 0 {
		st.Results = make(map[string]*stats.Run, sw.doneN)
		st.Digests = make(map[string]string, sw.doneN)
	}
	for _, id := range sw.order {
		switch c := sw.cells[id]; {
		case c.state == cellFailed:
			st.Failed = append(st.Failed, c.errText)
		case c.state == cellDone && final:
			st.Results[keyString(c.key)] = c.win.stats
			st.Digests[keyString(c.key)] = c.win.digest
		}
	}
	return st
}
