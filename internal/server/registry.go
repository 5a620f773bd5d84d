package server

import (
	"net/http"
	"sync/atomic"
)

// The worker registry: who is alive, under which lease epoch, and what
// happens when that stops being true. One mutex (coordinator.mu) guards
// the registry AND the cell state it feeds — registration, supersession,
// death, and requeue are each a single critical section, so there is no
// window in which a cell is assigned to a lease the registry has already
// declared dead, and no window in which a re-registered worker coexists
// with its own stale registration.

// workerEnt is one registered worker.
type workerEnt struct {
	id    string
	lease uint64
	// beat counts authenticated requests (heartbeat, poll, result); the
	// liveness watchdog declares the worker dead when it sits still for
	// Config.WorkerDeadAfter.
	beat    atomic.Int64
	unwatch func()
	// strikes is the integrity ledger for this lease incarnation: digest
	// mismatches, lost audits, corrupt snapshot ships. Reaching the
	// quarantine threshold revokes the lease (strikeLocked).
	strikes int
}

// handleRegister is POST /fabric/register. Re-registering an existing
// identity — a worker that crashed and restarted, or one whose heartbeats
// were partitioned long enough that it wants a fresh lease — atomically
// supersedes the old registration: under one lock acquisition the old
// lease's in-flight cells are requeued, the liveness watch is re-armed
// (a keyed watchdog registration revokes any pending stall verdict against
// the old incarnation), and the new lease becomes the only one the coordinator
// will assign to. There is no instant at which both incarnations can hold
// assignments, so a restart race cannot double-run a cell against two
// lease epochs the coordinator still believes in.
func (c *coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "worker identity required"})
		return
	}
	c.mu.Lock()
	c.leaseSeq++
	lease := c.leaseSeq
	if old := c.workers[req.Worker]; old != nil {
		old.unwatch()
		c.dropAssignmentsLocked(req.Worker, old.lease)
	} else {
		c.ring.Add(req.Worker)
	}
	ent := &workerEnt{id: req.Worker, lease: lease}
	ent.unwatch = c.wd.watch(&watchItem{id: req.Worker, key: req.Worker, beat: &ent.beat, cancel: func(error) {
		c.markDead(req.Worker, lease)
	}})
	c.workers[req.Worker] = ent
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, registerResponse{Lease: lease})
}

// handleHeartbeat is POST /fabric/heartbeat.
func (c *coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	c.mu.Lock()
	ent := c.workers[req.Worker]
	ok := ent != nil && ent.lease == req.Lease
	if ok {
		ent.beat.Add(1)
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusGone, map[string]any{"error": "stale lease; re-register"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleDeregister is POST /fabric/deregister: a worker draining
// gracefully. Its unfinished cells requeue immediately (their latest
// snapshots were shipped during the drain, so a peer resumes mid-cell
// rather than from cycle 0).
func (c *coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := c.s.decodeBody(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	c.mu.Lock()
	if ent := c.workers[req.Worker]; ent != nil && ent.lease == req.Lease {
		ent.unwatch()
		delete(c.workers, req.Worker)
		c.ring.Remove(req.Worker)
		c.dropAssignmentsLocked(req.Worker, req.Lease)
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// markDead is the liveness watchdog's verdict: the worker's beat counter
// sat still for WorkerDeadAfter. The lease guard makes stale verdicts
// harmless — if the worker re-registered while the verdict was in flight,
// the registry entry carries a newer lease and the kill is ignored (the
// watchdog's own revocation already makes this unlikely; the guard makes
// it impossible).
func (c *coordinator) markDead(id string, lease uint64) {
	c.mu.Lock()
	ent := c.workers[id]
	if ent == nil || ent.lease != lease {
		c.mu.Unlock()
		return
	}
	delete(c.workers, id)
	c.ring.Remove(id)
	c.s.met.workersDead.Add(1)
	c.dropAssignmentsLocked(id, lease)
	c.mu.Unlock()
}

// dropAssignmentsLocked removes every assignment held by (worker, lease)
// across all unfinished sweeps (sweep.dropLease); cells left with no live
// assignee go back to pending, to be re-assigned — snapshot attached, if
// one was shipped — by the next poll, which held polls are woken to make.
// Audits in flight on the departing worker wait for another worker (a
// forgotten audit would hold its sweep open forever). Requires c.mu.
func (c *coordinator) dropAssignmentsLocked(worker string, lease uint64) {
	requeued := 0
	for _, sw := range c.open {
		requeued += sw.dropLease(worker, lease)
	}
	c.applyLocked(outcome{requeued: requeued, wake: true})
}

// strikeLocked charges one integrity strike against a worker's current
// registration. At Config.QuarantineStrikes the worker is quarantined:
// lease revoked, liveness watch stopped, in-flight cells requeued — the
// same teardown as a death verdict, plus the workers_quarantined metric.
// Strikes are per lease incarnation, so re-admission is exactly one
// explicit re-register away (a fresh epoch starts clean); a persistently
// corrupting worker just re-earns its quarantine, incrementing the metric
// each time, while its cells keep re-serving from honest peers.
// Requires c.mu.
func (c *coordinator) strikeLocked(id string) {
	ent := c.workers[id]
	if ent == nil {
		return // already gone (dead, deregistered, or quarantined)
	}
	ent.strikes++
	if ent.strikes < c.s.cfg.QuarantineStrikes {
		return
	}
	ent.unwatch()
	delete(c.workers, id)
	c.ring.Remove(id)
	c.s.met.workersQuarantined.Add(1)
	c.dropAssignmentsLocked(id, ent.lease)
}

// workersLive returns the registered worker count (the /metrics gauge).
func (c *coordinator) workersLive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}
