package core

import (
	"fmt"

	"fgpsim/internal/branch"
	"fgpsim/internal/ir"
	"fgpsim/internal/mem"
	"fgpsim/internal/stats"
)

// This file implements durable mid-run checkpoints: capturing the complete
// architectural state of an engine at a quiescent commit boundary and
// restoring it into a freshly built engine so the resumed run is
// bit-identical — same output bytes, same retired counts, same statistics,
// same fault-injection stream — to one that never stopped.
//
// The commit-boundary rule is what makes the dynamic engine's state finite:
// a checkpoint is only taken when the instruction window is empty (every
// issued block has retired or been squashed). At that point all speculation
// has resolved — the rename table holds plain values, the speculative
// return stack is the architectural call stack, the write buffer has
// drained, and the predictor's speculative history equals its committed
// history — so the snapshot is exactly the paper's architectural state plus
// the predictor/cache tables and statistics counters. Arming
// Limits.CheckpointEvery changes the run's timing (draining stalls issue),
// but a cadence-N run interrupted at any checkpoint and resumed is
// indistinguishable from the cadence-N run that kept going; that is the
// invariant difftest.SnapshotOracle enforces.

// EngineState is a complete engine snapshot at a quiescent commit boundary.
// It is self-contained plain data: byte slices are copies, not aliases into
// the live engine.
type EngineState struct {
	// Static discriminates the engine family the snapshot came from.
	Static bool

	// Cycle is the simulated cycle the snapshot was taken at; the resumed
	// run continues counting from it.
	Cycle int64

	// Architectural state shared by both engines.
	Mem   []byte
	InPos [2]int64
	Out   []byte
	Regs  [ir.NumRegs]int32

	// RetStack is the (architectural) return stack, oldest frame first.
	RetStack []ir.BlockID

	// NextBlock is where fetch resumes.
	NextBlock ir.BlockID

	// Cursor is the perfect-prediction trace position (dynamic only).
	Cursor int64

	// MemEpoch, LastLoadRetry, and BlockedLoadGhosts carry the dynamic
	// engine's memory-disambiguation retry gate. They are timing state, not
	// architectural state: a store can bump the epoch with no blocked load
	// around to consume it, and that pending delta makes the next blocked
	// load retry one pass earlier. Dropping them would leave resumed runs
	// architecturally identical but a few cycles adrift of the straight run,
	// breaking bit-identical statistics.
	MemEpoch          int64
	LastLoadRetry     int64
	BlockedLoadGhosts int64

	// RegReady carries the static engine's per-register ready cycles
	// (absolute), so interlock stalls replay identically across a resume.
	RegReady [ir.NumRegs]int64

	// Stats is a deep copy of the counters accumulated so far.
	Stats *stats.Run

	// Cache is the memory-system state; nil for perfect-memory configs.
	Cache *mem.CacheState

	// Pred is the branch predictor state; nil for perfect prediction.
	Pred *branch.State
}

// ---------- dynamic engine ----------

// checkpointArmed reports whether the per-cycle drain trigger needs to run.
func (l Limits) checkpointArmed() bool {
	return l.CheckpointEvery > 0 || l.Preempt != nil
}

// captureState snapshots the dynamic engine. Callers guarantee quiescence:
// the active window is empty and issue is not stalled.
func (e *dynamicEngine) captureState() *EngineState {
	e.blockSizes.fold(e.st)
	st := &EngineState{
		Cycle:     e.cycle,
		Mem:       e.env.mem.Bytes(),
		InPos:     [2]int64{int64(e.env.inPos[0]), int64(e.env.inPos[1])},
		Out:       append([]byte(nil), e.env.out...),
		NextBlock: e.nextBlockID,
		Cursor:    int64(e.cursor),
		Stats:     e.st.Clone(),
		Cache:     e.ms.State(),

		MemEpoch:          e.memEpoch,
		LastLoadRetry:     e.lastLoadRetry,
		BlockedLoadGhosts: int64(e.blockedLoadGhosts),
	}
	for r := range e.rename {
		// At quiescence every producer has completed and been harvested;
		// the defensive read covers a producer reference that somehow
		// survived (it would already hold its final value).
		if en := e.rename[r]; en.prod != nilRef {
			st.Regs[r] = e.nodes.d[en.prod].val
		} else {
			st.Regs[r] = en.val
		}
	}
	depth := 0
	for rs := e.rs; rs != nil; rs = rs.parent {
		depth++
	}
	if depth > 0 { // nil when empty, for reflect-identical serialization
		st.RetStack = make([]ir.BlockID, depth)
		for rs := e.rs; rs != nil; rs = rs.parent {
			depth--
			st.RetStack[depth] = rs.target
		}
	}
	if e.pred != nil {
		st.Pred = branch.PredictorState(e.pred)
	}
	return st
}

// restore applies a snapshot to a freshly built dynamic engine (after
// SetHints, which rebuilds the predictor). Validation is defensive: the
// snapshot fingerprint should already have pinned image and configuration.
func (e *dynamicEngine) restore(st *EngineState) error {
	if st.Static {
		return &ResumeError{Reason: "snapshot is from the static engine"}
	}
	if int64(len(st.Mem)) != e.env.mem.Size() {
		return &ResumeError{Reason: fmt.Sprintf("memory image is %d bytes, machine has %d", len(st.Mem), e.env.mem.Size())}
	}
	if !validSnapBlock(e.img.Prog, st.NextBlock) {
		return &ResumeError{Reason: fmt.Sprintf("next block %d out of range", st.NextBlock)}
	}
	for _, t := range st.RetStack {
		if !validSnapBlock(e.img.Prog, t) {
			return &ResumeError{Reason: fmt.Sprintf("return-stack block %d out of range", t)}
		}
	}
	if st.Cursor < 0 || st.Cursor > int64(len(e.trace)) {
		return &ResumeError{Reason: fmt.Sprintf("trace cursor %d out of range [0,%d]", st.Cursor, len(e.trace))}
	}
	for s := 0; s < 2; s++ {
		if st.InPos[s] < 0 || st.InPos[s] > int64(len(e.env.in[s])) {
			return &ResumeError{Reason: fmt.Sprintf("input %d position %d out of range", s, st.InPos[s])}
		}
	}
	if (st.Pred == nil) != (e.pred == nil) {
		return &ResumeError{Reason: "predictor presence mismatch"}
	}
	if st.Stats == nil {
		return &ResumeError{Reason: "snapshot carries no statistics"}
	}
	if st.BlockedLoadGhosts < 0 || st.LastLoadRetry > st.MemEpoch {
		return &ResumeError{Reason: "memory retry gate state is inconsistent"}
	}
	if err := e.ms.SetState(st.Cache); err != nil {
		return &ResumeError{Reason: err.Error()}
	}
	if e.pred != nil {
		if err := branch.SetPredictorState(e.pred, st.Pred); err != nil {
			return &ResumeError{Reason: err.Error()}
		}
	}
	e.env.mem.SetBytes(st.Mem)
	e.env.inPos = [2]int{int(st.InPos[0]), int(st.InPos[1])}
	e.env.out = append(e.env.out[:0], st.Out...)
	for r := range e.rename {
		e.rename[r] = renEntry{prod: nilRef, val: st.Regs[r]}
	}
	e.rs = nil
	for i, t := range st.RetStack {
		rs := e.rspool.get()
		rs.target = t
		rs.parent = e.rs
		rs.depth = i + 1
		e.rs = rs
	}
	e.nextBlockID = st.NextBlock
	e.cursor = int(st.Cursor)
	e.memEpoch = st.MemEpoch
	e.lastLoadRetry = st.LastLoadRetry
	e.blockedLoadGhosts = int(st.BlockedLoadGhosts)
	e.cycle = st.Cycle
	e.lastCkpt = st.Cycle
	*e.st = *st.Stats.Clone()
	return nil
}

// checkpointNow captures state at a quiescent boundary and dispatches it:
// on preemption it returns a *PreemptedError carrying the state; otherwise
// it hands the state to the Checkpoint hook (whose error aborts the run).
func (e *dynamicEngine) checkpointNow() error {
	e.draining = false
	e.lastCkpt = e.cycle
	preempting := e.preempting
	e.preempting = false
	if !preempting && e.lim.Checkpoint == nil {
		return nil
	}
	var st *EngineState
	if e.fill == nil {
		// Fill-unit images mutate their program at run time, so their
		// snapshots cannot be validated against a stable fingerprint; a
		// preempted fill-unit run re-runs from scratch (State == nil).
		st = e.captureState()
	}
	if preempting {
		return &PreemptedError{Cycle: e.cycle, State: st}
	}
	if st == nil {
		return nil
	}
	return e.lim.Checkpoint(st)
}

func validSnapBlock(p *ir.Program, id ir.BlockID) bool {
	return id >= 0 && int(id) < len(p.Blocks) && p.Blocks[id] != nil
}

// ---------- static engine ----------

// captureStatic snapshots the static engine at a block boundary: next is
// the block about to execute and nextCycle its first issue cycle.
func (e *staticEngine) captureStatic(next ir.BlockID, nextCycle int64) *EngineState {
	e.blockSizes.fold(e.st)
	st := &EngineState{
		Static:    true,
		Cycle:     nextCycle,
		Mem:       e.env.mem.Bytes(),
		InPos:     [2]int64{int64(e.env.inPos[0]), int64(e.env.inPos[1])},
		Out:       append([]byte(nil), e.env.out...),
		Regs:      e.regs,
		RegReady:  e.regReadyAt,
		RetStack:  append([]ir.BlockID(nil), e.retStack...),
		NextBlock: next,
		Stats:     e.st.Clone(),
		Cache:     e.ms.State(),
	}
	return st
}

// restore applies a snapshot to a freshly built static engine; run() picks
// up the resume block and cycle.
func (e *staticEngine) restore(st *EngineState) error {
	if !st.Static {
		return &ResumeError{Reason: "snapshot is from the dynamic engine"}
	}
	if int64(len(st.Mem)) != e.env.mem.Size() {
		return &ResumeError{Reason: fmt.Sprintf("memory image is %d bytes, machine has %d", len(st.Mem), e.env.mem.Size())}
	}
	if !validSnapBlock(e.img.Prog, st.NextBlock) {
		return &ResumeError{Reason: fmt.Sprintf("next block %d out of range", st.NextBlock)}
	}
	for _, t := range st.RetStack {
		if !validSnapBlock(e.img.Prog, t) {
			return &ResumeError{Reason: fmt.Sprintf("return-stack block %d out of range", t)}
		}
	}
	for s := 0; s < 2; s++ {
		if st.InPos[s] < 0 || st.InPos[s] > int64(len(e.env.in[s])) {
			return &ResumeError{Reason: fmt.Sprintf("input %d position %d out of range", s, st.InPos[s])}
		}
	}
	if st.Stats == nil {
		return &ResumeError{Reason: "snapshot carries no statistics"}
	}
	if err := e.ms.SetState(st.Cache); err != nil {
		return &ResumeError{Reason: err.Error()}
	}
	e.env.mem.SetBytes(st.Mem)
	e.env.inPos = [2]int{int(st.InPos[0]), int(st.InPos[1])}
	e.env.out = append(e.env.out[:0], st.Out...)
	e.regs = st.Regs
	e.regReadyAt = st.RegReady
	e.retStack = append(e.retStack[:0], st.RetStack...)
	*e.st = *st.Stats.Clone()
	e.resumed = true
	e.resumeBlock = st.NextBlock
	e.resumeCycle = st.Cycle
	e.lastCkpt = st.Cycle
	return nil
}
