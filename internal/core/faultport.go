package core

import (
	"fmt"

	"fgpsim/internal/branch"
	"fgpsim/internal/ir"
)

// FaultHook is invoked once per cycle of a dynamic run (Limits.Fault) with
// a port into the live engine. Injectors decide from the port's cycle and
// window occupancy whether to perturb anything this cycle.
type FaultHook func(FaultPort)

// FaultPort is the surface a fault injector perturbs a running dynamic
// engine through. Every method either leaves the machine in a state from
// which checkpoint recovery reproduces the uninjected architectural results
// (output and retired work byte-identical), or poisons the run with a typed
// *UnrecoverableFaultError — never a panic, never silently wrong output.
//
// Each method returns a human-readable description of what was done (empty
// when no injection site was available this cycle); the boolean reports
// whether anything was injected. The r argument is injector-supplied
// randomness used to pick among candidate sites deterministically.
type FaultPort interface {
	// Cycle is the current simulated cycle.
	Cycle() int64
	// ActiveBlocks is the number of blocks in the instruction window.
	ActiveBlocks() int
	// PerturbPredictor flips state inside the branch predictor (a BTB
	// counter/tag or gshare counter/history bit). Always repairable: a
	// wrong prediction is squashed by the normal mispredict machinery.
	PerturbPredictor(r uint64) string
	// InjectSquash models a detected transient fault in window position
	// pos: the block and everything younger are squashed and refetched
	// from its own checkpoint. The position is clamped and moved past any
	// block holding an executed system call (whose side effects make a
	// replay unsafe).
	InjectSquash(pos int) (string, bool)
	// CorruptValue flips one bit in a completed ALU result in window
	// position pos, then recovers the block from its checkpoint (the
	// model: ECC/parity detects the flip and recovery replays).
	CorruptValue(pos int, r uint64) (string, bool)
	// ForceMemViolation executes a load that is still blocked on memory
	// disambiguation, bypassing the older-store-address check. The load
	// may read a stale value; at retirement the engine re-derives the
	// architectural value and either verifies the access (benign), replays
	// the block from its checkpoint, or — if the block's side effects are
	// irreversible — poisons the run with *UnrecoverableFaultError.
	ForceMemViolation(r uint64) (string, bool)
	// CorruptArch flips a bit of committed architectural memory. This is
	// outside the speculation checkpoints' reach, so it always poisons the
	// run with a typed *UnrecoverableFaultError (a machine check).
	CorruptArch(r uint64) string
}

func (e *dynamicEngine) Cycle() int64      { return e.cycle }
func (e *dynamicEngine) ActiveBlocks() int { return e.active.len() }

func (e *dynamicEngine) PerturbPredictor(r uint64) string {
	p, ok := e.pred.(branch.Perturbable)
	if !ok {
		return "" // perfect prediction has no physical predictor state
	}
	desc := p.Perturb(r)
	if desc != "" {
		e.st.InjectedFaults++
		e.st.RepairedFaults++ // mispredict recovery absorbs any wrong prediction
	}
	return desc
}

func (e *dynamicEngine) InjectSquash(pos int) (string, bool) {
	pos = e.safeSquashPos(pos)
	if pos < 0 {
		return "", false
	}
	ab := e.active.at(pos)
	id := e.blocks.xb[ab].ID
	e.injectedSquash(pos, ab)
	e.st.InjectedFaults++
	e.st.RepairedFaults++
	return fmt.Sprintf("squash window[%d:] and refetch block %d", pos, id), true
}

func (e *dynamicEngine) CorruptValue(pos int, r uint64) (string, bool) {
	pos = e.safeSquashPos(pos)
	if pos < 0 {
		return "", false
	}
	ab := e.active.at(pos)
	ns := &e.nodes
	lo, hi := e.blocks.nodes(ab)
	cands := 0
	for nd := lo; nd < hi; nd++ {
		if ns.state(nd) == nsDone && ns.d[nd].op.IsPure() {
			cands++
		}
	}
	if cands == 0 {
		return "", false
	}
	pick := int(r % uint64(cands))
	target := nilRef
	for nd := lo; nd < hi; nd++ {
		if ns.state(nd) == nsDone && ns.d[nd].op.IsPure() {
			if pick == 0 {
				target = nd
				break
			}
			pick--
		}
	}
	bit := uint((r >> 32) % 32)
	ns.d[target].val ^= 1 << bit
	id := e.blocks.xb[ab].ID
	seq := ns.d[target].seq
	e.injectedSquash(pos, ab)
	e.st.InjectedFaults++
	e.st.RepairedFaults++
	return fmt.Sprintf("flip bit %d of node %d result, recover block %d from checkpoint", bit, seq, id), true
}

func (e *dynamicEngine) ForceMemViolation(r uint64) (string, bool) {
	if len(e.blockedLoads) == 0 {
		return "", false
	}
	idx := int(r % uint64(len(e.blockedLoads)))
	nd := e.blockedLoads[idx]
	e.blockedLoads = append(e.blockedLoads[:idx], e.blockedLoads[idx+1:]...)
	e.nodes.d[nd].status |= nsInjected
	e.injLive++
	e.st.InjectedFaults++
	e.execute(nd)
	return fmt.Sprintf("execute blocked load %d past unknown older store addresses", e.nodes.d[nd].seq), true
}

func (e *dynamicEngine) CorruptArch(r uint64) string {
	if e.env.mem.Size() == 0 {
		return ""
	}
	off := r % uint64(e.env.mem.Size())
	bit := (r >> 40) % 8
	e.env.mem.FlipBit(int64(off), uint(bit))
	e.st.InjectedFaults++
	if e.runErr == nil {
		e.runErr = &UnrecoverableFaultError{
			Kind:   "arch-state",
			Cycle:  e.cycle,
			Reason: fmt.Sprintf("bit %d of committed memory byte 0x%x flipped outside checkpoint reach", bit, off),
		}
	}
	return fmt.Sprintf("flip bit %d of memory byte 0x%x (machine check)", bit, off)
}

// safeSquashPos clamps a window position to the active blocks and moves it
// past any block containing a system call that has started executing: a
// syscall's side effects (input consumed, output emitted) are outside the
// checkpoints, so a replay of its block would not be transparent. Returns
// -1 when no squashable position remains.
func (e *dynamicEngine) safeSquashPos(pos int) int {
	n := e.active.len()
	if n == 0 {
		return -1
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= n {
		pos = n - 1
	}
	ns := &e.nodes
	for i := pos; i < n; i++ {
		lo, hi := e.blocks.nodes(e.active.at(i))
		for nd := lo; nd < hi; nd++ {
			if st := ns.state(nd); ns.d[nd].op == ir.Sys && (st == nsExecuting || st == nsDone) {
				pos = i + 1
			}
		}
	}
	if pos >= n {
		return -1
	}
	return pos
}

// injectedSquash recovers the window back to block ab's entry checkpoint
// and refetches the block itself — processFault's recovery sequence, minus
// the architectural fault bookkeeping (no fault is charged, the fill unit
// does not observe a divergence, and fetch redirects to the block's own ID
// so the replay retires exactly what the uninjected run would have).
func (e *dynamicEngine) injectedSquash(pos int, ab bref) {
	refetch := e.blocks.xb[ab].ID
	e.restoreRename(&e.blocks.renSnap[ab])
	e.rs = e.blocks.rsSnap[ab]
	e.cursor = int(e.blocks.cursorSnap[ab])
	e.squashFrom(pos)
	if e.pred != nil {
		e.pred.Restore(e.blocks.predSnap[ab])
	}
	e.nextBlockID = refetch
	e.issueBlock = nilRef
	e.issueStall = false
}

// verifyInjected re-derives the architectural value of every injected load
// in the block about to retire (all older stores have committed or sit in
// the write buffer, so loadValue is exact now). A match means the forced
// early execution was benign. A mismatch means the load consumed a stale
// value: the block replays from its checkpoint — unless it contains an
// executed system call, whose side effects make the stale value
// unrecoverable (a machine check). Returns false when the block must not
// retire this cycle.
func (e *dynamicEngine) verifyInjected(ab bref) bool {
	ns := &e.nodes
	lo, hi := e.blocks.nodes(ab)
	bad := int64(0)
	for nd := lo; nd < hi; nd++ {
		if ns.d[nd].status&nsInjected == 0 {
			continue
		}
		ns.d[nd].status &^= nsInjected
		e.injLive--
		if want, _ := e.loadValue(nd); want == ns.d[nd].val {
			e.st.RepairedFaults++
		} else {
			bad++
		}
	}
	if bad == 0 {
		return true
	}
	for nd := lo; nd < hi; nd++ {
		if ns.d[nd].op == ir.Sys {
			if e.runErr == nil {
				e.runErr = &UnrecoverableFaultError{
					Kind:   "mem-violation",
					Cycle:  e.cycle,
					Reason: fmt.Sprintf("load in block %d consumed a stale value and the block's syscall already executed", e.blocks.xb[ab].ID),
				}
			}
			return false
		}
	}
	e.injectedSquash(0, ab)
	e.st.RepairedFaults += bad
	return false
}
