package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
	"fgpsim/internal/stats"
)

// The model check (DESIGN.md §15): seeded event streams drive one sweep's
// transitions directly — no HTTP, no journal files, no wall clock — the
// way the coordinator's handlers do, and after every event a set of
// invariants is checked against a recount of the sweep's cells. A
// delivery the sweep says to journal waits for its append to land or be
// refused, as a handler waits outside the lock, so other events interleave
// with it. Crash events rebuild the sweep from exactly the records that
// reached the journal, under the next crash epoch. After the trace, honest
// workers alone must finish the sweep. A failing trace is shrunk by
// dropping one event at a time, the chaos reducer's idiom, and printed
// with its seed.

// evKind is one kind of model event.
type evKind uint8

const (
	evRegister    evKind = iota // a worker registers, superseding its previous lease
	evPoll                      // a registered worker polls for 1-3 cells
	evHonest                    // an honest worker's assignment delivers the cell's true bytes
	evLie                       // the liar's assignment delivers bytes of its own, digest and all
	evFail                      // any assignment delivers a failure
	evCorrupt                   // any assignment's delivery fails the digest gate in transit
	evLand                      // an append in flight reaches the cell journal
	evJournalFail               // an append in flight is refused
	evDuplicate                 // a delivered result is delivered again (a retry or a late copy)
	evDeath                     // a registered worker is declared dead
	evDeregister                // a registered worker drains
	evCrash                     // the coordinator crashes and replays the sweep from its journals
	numEvKinds
)

var evNames = [numEvKinds]string{"register", "poll", "honest", "lie", "fail", "corrupt",
	"land", "journal-fail", "duplicate", "death", "deregister", "crash"}

// event is one step of a trace; a and b pick the worker, the assignment
// or the batch size, modulo whatever exists when the event runs, so any
// subsequence of a trace is a trace.
type event struct {
	kind evKind
	a, b uint8
}

func (e event) String() string { return fmt.Sprintf("%s(%d,%d)", evNames[e.kind], e.a, e.b) }

// evWeights biases generated traces toward polls and deliveries.
var evWeights = [numEvKinds]int{evRegister: 3, evPoll: 8, evHonest: 8, evLie: 3, evFail: 1,
	evCorrupt: 1, evLand: 8, evJournalFail: 1, evDuplicate: 3, evDeath: 1, evDeregister: 1, evCrash: 1}

// modelWorkers are w0..w3; w3 is the liar, whose every success on a cell
// is the same bytes of its own.
const (
	modelWorkers = 4
	modelLiar    = "w3"
)

// genTrace derives a trace of n events from a seed through chaos.Mix.
func genTrace(seed uint64, n int) []event {
	total := 0
	for _, w := range evWeights {
		total += w
	}
	r := chaos.Mix(seed, "sweep-model")
	next := func() uint64 {
		r = chaos.Mix(r, "next")
		return r
	}
	trace := make([]event, n)
	for i := range trace {
		v := int(next() % uint64(total))
		k := evKind(0)
		for v >= evWeights[k] {
			v -= evWeights[k]
			k++
		}
		x := next()
		trace[i] = event{kind: k, a: uint8(x), b: uint8(x >> 8)}
	}
	return trace
}

// modelSpec is the model's sweep: one program over six configurations.
// Nothing compiles it; the model only needs its cells.
func modelSpec() SweepSpec {
	var cfgs []ConfigSpec
	for _, mem := range []string{"A", "B"} {
		for _, win := range []int{0, 8, 16} {
			cfgs = append(cfgs, ConfigSpec{Disc: "dyn4", Issue: 4, Mem: mem, Branch: "single", Window: win})
		}
	}
	return SweepSpec{Source: "model", Configs: cfgs}
}

// held is an assignment a worker is running; it may deliver even after its
// lease is dropped.
type held struct {
	cell, worker string
	lease        uint64
	attempt      int
	audit        bool
}

// sent is a delivery a worker made, kept for duplicates and while its
// append is in flight.
type sent struct {
	cell string
	d    delivery
}

// model is the world around one sweep: the registry the coordinator keeps
// (leases, the ring, strike ledgers), the assignments workers are running,
// the journals, and what the invariants need to remember.
type model struct {
	seq       int
	id        string
	auditRate float64
	sw        *sweep
	ring      *exp.Ring
	leases    map[string]uint64
	ledger    map[string]int
	leaseSeq  uint64
	now       time.Time

	running []held
	sent    []sent
	appends []sent                     // deliveries whose append is in flight
	cells   map[exp.Key]exp.CellRecord // the cell journal, folded as it is read
	epoch   int                        // the coordinator's crash epoch, one per crash

	// Since the last crash: the workers each cell's digests came from (the
	// journaled winner's producer survives the crash), the digests its
	// non-audit runs delivered, the workers a verdict on it struck, and
	// whether an excluded worker ran its audit (the relaxed anti-affinity
	// of a fabric with no one else to ask).
	maxAttempt map[string]int // every attempt ever assigned, per cell
	producers  map[string]map[string]map[string]bool
	ran        map[string]map[string]bool
	struck     map[string]map[string]bool
	relaxed    map[string]bool
}

// modelStats is every delivered result's stats; the sweep reads only
// whether there are any.
var modelStats = stats.New()

func newModel(auditRate float64) *model {
	m := &model{auditRate: auditRate, ring: exp.NewRing(),
		leases: map[string]uint64{}, ledger: map[string]int{}, now: time.Unix(0, 0)}
	m.nextSweep()
	return m
}

// nextSweep replaces a finished sweep with a fresh one, as a coordinator
// moves on to its next sweep; what workers still run for the old one is
// late, and the registry carries over.
func (m *model) nextSweep() {
	m.seq++
	m.id = fmt.Sprintf("model-%d", m.seq)
	m.sw, _ = newSweep(m.id, modelSpec(), m.auditRate, time.Millisecond)
	m.running, m.sent, m.appends = nil, nil, nil
	m.cells, m.maxAttempt = map[exp.Key]exp.CellRecord{}, map[string]int{}
	m.forget()
}

// forget drops what the invariants remember of verdicts, as a crash loses
// them with the registry, but keeps each journaled winner's producer,
// which replay restores with the winner.
func (m *model) forget() {
	m.producers, m.ran = map[string]map[string]map[string]bool{}, map[string]map[string]bool{}
	m.struck, m.relaxed = map[string]map[string]bool{}, map[string]bool{}
	for _, id := range m.sw.order {
		if rec, ok := m.cells[m.sw.cells[id].key]; ok {
			m.producers[id] = map[string]map[string]bool{rec.Digest: {rec.Worker: true}}
		}
	}
}

// run applies a trace, checking the invariants after every event, and
// then drains the sweep. It returns the first violation, naming the event.
func (m *model) run(trace []event) error {
	for i, e := range trace {
		if m.sw.finished {
			m.nextSweep()
		}
		if err := m.step(e); err != nil {
			return fmt.Errorf("event %d %v: %v", i, e, err)
		}
	}
	return m.drain()
}

// step applies one event and checks the invariants after it.
func (m *model) step(e event) error {
	m.now = m.now.Add(time.Millisecond)
	before := m.snapshot()
	settled, err := m.apply(e)
	if err == nil {
		err = m.check(before, settled)
	}
	return err
}

// drain checks progress: from wherever the trace left the sweep, the
// honest workers alone finish it. Every append in flight is refused and
// the liar leaves; nothing is delivered again, and no worker delivers what
// it holds under a lease that is gone, so the sweep must hand out again
// whatever it still needs.
func (m *model) drain() error {
	step := func(e event) error {
		if err := m.step(e); err != nil {
			return fmt.Errorf("drain %v: %v", e, err)
		}
		return nil
	}
	for len(m.appends) > 0 {
		if err := step(event{kind: evJournalFail}); err != nil {
			return err
		}
	}
	if err := step(event{kind: evDeath, a: modelWorkers - 1}); err != nil { // the liar
		return err
	}
	for round := 0; round < 10 && !m.sw.finished; round++ {
		m.running = slices.DeleteFunc(m.running, func(h held) bool {
			lease, ok := m.leases[h.worker]
			return !ok || lease != h.lease
		})
		for w := uint8(0); w < modelWorkers-1; w++ {
			if _, ok := m.leases[workerName(w)]; !ok {
				if err := step(event{kind: evRegister, a: w}); err != nil {
					return err
				}
			}
			if err := step(event{kind: evPoll, a: w, b: 2}); err != nil {
				return err
			}
		}
		for len(m.running) > 0 && !m.sw.finished {
			if err := step(event{kind: evHonest}); err != nil {
				return err
			}
			for len(m.appends) > 0 {
				if err := step(event{kind: evLand}); err != nil {
					return err
				}
			}
		}
	}
	if !m.sw.finished {
		var cells []string
		for _, id := range m.sw.order {
			c := m.sw.cells[id]
			cells = append(cells, fmt.Sprintf("%s state %d audit %d assignees %d", id, c.state, c.audit, len(c.assignees)))
		}
		return fmt.Errorf("drain: honest workers left the sweep unfinished: %s", strings.Join(cells, "; "))
	}
	return nil
}

// cellView is what the invariants remember of a cell across one event.
type cellView struct {
	state cellState
	win   result
}

func (m *model) snapshot() map[string]cellView {
	v := make(map[string]cellView, len(m.sw.order))
	for _, id := range m.sw.order {
		c := m.sw.cells[id]
		v[id] = cellView{c.state, c.win}
	}
	return v
}

func workerName(a uint8) string { return fmt.Sprintf("w%d", int(a)%modelWorkers) }

// apply runs one event as the coordinator would, returning the cells a
// delivery settled for the first time.
func (m *model) apply(e event) (settled []string, err error) {
	sw := m.sw
	w := workerName(e.a)
	switch e.kind {
	case evRegister:
		if old, ok := m.leases[w]; ok {
			sw.dropLease(w, old)
		} else {
			m.ring.Add(w)
		}
		m.leaseSeq++
		m.leases[w], m.ledger[w] = m.leaseSeq, 0
	case evPoll:
		lease, ok := m.leases[w]
		if !ok {
			return nil, nil
		}
		picked, _ := sw.pick(w, lease, 1+int(e.b)%3, m.now, m.ring)
		for _, a := range picked {
			if a.Attempt <= m.maxAttempt[a.Cell] {
				return nil, fmt.Errorf("cell %s assigned at attempt %d, not above earlier attempt %d", a.Cell, a.Attempt, m.maxAttempt[a.Cell])
			}
			m.maxAttempt[a.Cell] = a.Attempt
			m.running = append(m.running, held{a.Cell, w, lease, a.Attempt, a.Audit})
		}
	case evHonest, evLie, evFail, evCorrupt:
		var mine []int // the running assignments this event may pick
		for i, h := range m.running {
			liar := h.worker == modelLiar
			if e.kind == evFail || e.kind == evCorrupt || liar == (e.kind == evLie) {
				mine = append(mine, i)
			}
		}
		if len(mine) == 0 {
			return nil, nil
		}
		i := mine[int(e.b)%len(mine)]
		h := m.running[i]
		m.running = append(m.running[:i], m.running[i+1:]...)
		if e.kind == evCorrupt {
			m.strike(sw.reject(h.cell, h.worker, h.attempt).strike)
			return nil, nil
		}
		d := delivery{result: result{worker: h.worker, attempt: h.attempt}, audit: h.audit}
		switch e.kind {
		case evFail:
			d.err = "boom"
		case evLie:
			d.digest, d.stats = "lie:"+h.cell, modelStats
		default:
			d.digest, d.stats = "true:"+h.cell, modelStats
		}
		m.sent = append(m.sent, sent{h.cell, d})
		return m.fold(h.cell, d, m.sw.deliver), nil
	case evLand, evJournalFail:
		if len(m.appends) == 0 {
			return nil, nil
		}
		i := int(e.b) % len(m.appends)
		s := m.appends[i]
		m.appends = append(m.appends[:i], m.appends[i+1:]...)
		if e.kind == evJournalFail {
			m.sw.journaled(m.sw.cells[s.cell], s.d, false)
			m.sw.finish()
			return nil, nil
		}
		m.journal(s)
		return m.fold(s.cell, s.d, func(c *cell, d delivery) outcome { return m.sw.journaled(c, d, true) }), nil
	case evDuplicate:
		if len(m.sent) == 0 {
			return nil, nil
		}
		s := m.sent[int(e.b)%len(m.sent)]
		return m.fold(s.cell, s.d, m.sw.deliver), nil
	case evDeath, evDeregister:
		m.leave(w)
	case evCrash:
		return nil, m.crash(e.a)
	}
	return nil, nil
}

// fold runs delivery d through transition t, as a handler does. One the
// sweep says to journal waits in appends; otherwise the outcome is applied,
// and a delivery that took effect is remembered for the invariants.
func (m *model) fold(id string, d delivery, t func(*cell, delivery) outcome) (settled []string) {
	c := m.sw.cells[id]
	relaxed := d.audit && c.excluded(d.worker) && slices.ContainsFunc(c.assignees, d.of)
	out := t(c, d)
	if out.journal {
		m.appends = append(m.appends, sent{id, d})
		return nil
	}
	if d.stats != nil && !out.late {
		if m.producers[id] == nil {
			m.producers[id] = map[string]map[string]bool{}
		}
		if m.producers[id][d.digest] == nil {
			m.producers[id][d.digest] = map[string]bool{}
		}
		m.producers[id][d.digest][d.worker] = true
		if !d.audit {
			if m.ran[id] == nil {
				m.ran[id] = map[string]bool{}
			}
			m.ran[id][d.digest] = true
		}
		m.relaxed[id] = m.relaxed[id] || relaxed
	}
	if out.strike != "" {
		if m.struck[id] == nil {
			m.struck[id] = map[string]bool{}
		}
		m.struck[id][out.strike] = true
		m.strike(out.strike)
	}
	if out.settled {
		settled = append(settled, id)
	}
	m.sw.finish()
	return settled
}

// journal lands one delivery's record in the cell journal, folded as a
// replay folds it.
func (m *model) journal(s sent) {
	k, r := m.sw.cells[s.cell].key, s.d.result
	if cur, seen := m.cells[k]; !seen || exp.Supersedes(cur.Attempt, cur.Digest, r.attempt, r.digest) {
		m.cells[k] = exp.CellRecord{Stats: r.stats, Attempt: r.attempt, Digest: r.digest, Worker: r.worker}
	}
}

// strike charges a registered worker; at the third strike it is
// quarantined.
func (m *model) strike(w string) {
	if _, ok := m.leases[w]; !ok || w == "" {
		return
	}
	if m.ledger[w]++; m.ledger[w] >= 3 {
		m.leave(w)
	}
}

// leave removes a registered worker: death, drain or quarantine.
func (m *model) leave(w string) {
	lease, ok := m.leases[w]
	if !ok {
		return
	}
	delete(m.leases, w)
	m.ring.Remove(w)
	m.sw.dropLease(w, lease)
}

// crash rebuilds the sweep from its cell journal under the next crash
// epoch, as a restarted coordinator does, and checks that every cell's
// attempts resume at the epoch base, above every attempt handed out before
// the crash, journaled or not (check then finds every journaled winner
// restored, producer and all). Each append in flight reached the journal
// or not, as bit i%8 of landed says; its worker saw no acknowledgement.
// The registry, the strike ledgers and open audits are in-memory and are
// lost; workers keep running what they hold and must re-register.
func (m *model) crash(landed uint8) error {
	for i, s := range m.appends {
		if landed>>(i%8)&1 == 1 {
			m.journal(s)
		}
	}
	m.appends = nil
	m.epoch++
	base := epochBase(m.epoch)
	m.sw, _ = newSweep(m.id, modelSpec(), m.auditRate, time.Millisecond)
	m.sw.replay(m.cells, base)
	m.sw.finish() // every cell may have been journaled already
	m.leases, m.ledger, m.ring = map[string]uint64{}, map[string]int{}, exp.NewRing()
	m.forget()
	for _, id := range m.sw.order {
		if a := m.sw.cells[id].attempt; a < base || a <= m.maxAttempt[id] {
			return fmt.Errorf("crash: cell %s resumes at attempt %d, below epoch base %d or attempt %d handed out before the crash",
				id, a, base, m.maxAttempt[id])
		}
	}
	return nil
}

// check verifies the invariants after one event.
func (m *model) check(before map[string]cellView, settled []string) error {
	sw := m.sw
	var pending, done, failed, open int
	allSettled := len(m.appends) == 0
	for _, id := range sw.order {
		c := sw.cells[id]
		switch c.state {
		case cellPending:
			pending++
		case cellDone:
			done++
		case cellFailed:
			failed++
		}
		if c.state != cellDone && c.state != cellFailed {
			allSettled = false
		}
		if c.audit == auditOpen || c.audit == tiebreakOpen {
			open++
			allSettled = false
		}
		if b, ok := before[id]; ok && b.state == cellDone {
			if c.state != cellDone {
				return fmt.Errorf("cell %s left done for state %d", id, c.state)
			}
			for _, s := range settled {
				if s == id {
					return fmt.Errorf("cell %s counted toward done twice", id)
				}
			}
		}
		// A cell is done exactly when the journal holds a result for it,
		// and it serves the one replay picks, from the same producer.
		rec, journaled := m.cells[c.key]
		if (c.state == cellDone) != journaled {
			return fmt.Errorf("cell %s in state %d, journaled %v", id, c.state, journaled)
		}
		if journaled && (c.win.attempt != rec.Attempt || c.win.digest != rec.Digest || c.win.worker != rec.Worker) {
			return fmt.Errorf("cell %s serves (%d, %s) by %q, its journal replays to (%d, %s) by %q",
				id, c.win.attempt, c.win.digest, c.win.worker, rec.Attempt, rec.Digest, rec.Worker)
		}
	}
	if pending != sw.pendingN || done != sw.doneN || failed != sw.failedN || open != sw.auditsOpen || len(m.appends) != sw.appending {
		return fmt.Errorf("counts pending %d done %d failed %d open %d appending %d, recount %d %d %d %d %d",
			sw.pendingN, sw.doneN, sw.failedN, sw.auditsOpen, sw.appending, pending, done, failed, open, len(m.appends))
	}
	if sw.settled() != allSettled {
		return fmt.Errorf("settled() = %v, but cells say %v", sw.settled(), allSettled)
	}
	// No disagreement is silent, whatever the audit rate: every cell whose
	// runs delivered two different digests counted one.
	disputed := 0
	for _, digests := range m.ran {
		if len(digests) > 1 {
			disputed++
		}
	}
	if sw.counts.auditsDisagreed < disputed {
		return fmt.Errorf("%d cells' runs disagreed, %d disagreements counted", disputed, sw.counts.auditsDisagreed)
	}
	if !allSettled {
		return nil
	}
	// A struck worker is never the sole producer of a served result, unless
	// the fabric had no one else to ask.
	for _, id := range sw.order {
		c := sw.cells[id]
		if c.state != cellDone || len(m.struck[id]) == 0 || m.relaxed[id] {
			continue
		}
		sole := true
		for w := range m.producers[id][c.win.digest] {
			sole = sole && m.struck[id][w]
		}
		if sole {
			return fmt.Errorf("cell %s serves %s, produced only by struck workers %v", id, c.win.digest, m.struck[id])
		}
	}
	return nil
}

// shrink drops events one at a time while the trace still fails, until
// no single event can go: the trace is 1-minimal.
func shrink(auditRate float64, trace []event) ([]event, error) {
	err := newModel(auditRate).run(trace)
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(trace); i++ {
			cand := append(append([]event(nil), trace[:i]...), trace[i+1:]...)
			if cerr := newModel(auditRate).run(cand); cerr != nil {
				trace, err, progress = cand, cerr, true
				i--
			}
		}
	}
	return trace, err
}

func formatTrace(trace []event) string {
	parts := make([]string, len(trace))
	for i, e := range trace {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

var modelAuditRates = []float64{0, 0.5, 1}

// TestSweepModel runs seeded traces through the sweep's transitions with
// every invariant checked after every event.
func TestSweepModel(t *testing.T) {
	seeds, events := 300, 1500
	if testing.Short() {
		seeds, events = 60, 1000
	}
	start := time.Now()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rate := modelAuditRates[seed%uint64(len(modelAuditRates))]
		trace := genTrace(seed, events)
		if err := newModel(rate).run(trace); err != nil {
			small, serr := shrink(rate, trace)
			t.Fatalf("seed %d (audit rate %v): %v\nshrunk to %d events: %s\n%v", seed, rate, err, len(small), formatTrace(small), serr)
		}
	}
	n := seeds * events
	t.Logf("%d events in %v (%.0f events/s)", n, time.Since(start).Round(time.Millisecond), float64(n)/time.Since(start).Seconds())
}

// FuzzSweepModel reads bytes as a model trace: the first byte picks the
// audit rate and every three after it are one event, up to 1000 events.
// The fuzzer minimizes a failing input itself.
func FuzzSweepModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rate := modelAuditRates[int(data[0])%len(modelAuditRates)]
		var trace []event
		for i := 1; i+2 < len(data) && len(trace) < 1000; i += 3 {
			trace = append(trace, event{kind: evKind(data[i] % uint8(numEvKinds)), a: data[i+1], b: data[i+2]})
		}
		if err := newModel(rate).run(trace); err != nil {
			t.Fatalf("audit rate %v: %v\ntrace: %s", rate, err, formatTrace(trace))
		}
	})
}
