package core

import (
	"fgpsim/internal/ir"
	"fgpsim/internal/machine"
)

// This file holds the issue engine and the squash machinery of the dynamic
// engine: in-order issue of nodes along the predicted path into the
// instruction window, per-block checkpointing (rename table, speculative
// return stack, perfect-prediction trace cursor), and end-of-cycle
// processing of the oldest offender (mispredicted branch or assert fault).

func (e *dynamicEngine) issue() {
	if e.issueStall {
		return
	}
	// The window's front cannot change during issue (retire and squash run
	// outside it), so one seq floor serves every block opened this cycle.
	seqFloor := e.seqFloor()
	memSlots, aluSlots, total := e.imem, e.ialu, e.itotal
	for total > 0 {
		if e.issueBlock == nilRef {
			if e.draining {
				// Checkpoint drain: finish the blocks in flight, open no new
				// ones; issue resumes once the window empties and the
				// snapshot is taken (checkpoint.go).
				return
			}
			if e.nextBlockID == ir.NoBlock {
				return
			}
			if e.active.len() >= e.window {
				return // window full: cannot activate another basic block
			}
			e.openBlock(e.nextBlockID, seqFloor)
		}
		ab := e.issueBlock
		idx := e.blocks.issued[ab]
		tn := &e.issueTmpl.nodes[idx]
		isTerm := int(idx) == len(e.issueTmpl.nodes)-1
		// Strict in-order issue: when the next node's slot class is
		// exhausted, issue stops for this cycle.
		if tn.meta&metaMem != 0 {
			if memSlots == 0 {
				return
			}
			memSlots--
		} else {
			if aluSlots == 0 {
				return
			}
			aluSlots--
		}
		total--
		e.issueNode(ab, idx, tn, isTerm)
		if isTerm {
			e.blocks.flags[ab] |= abIssuedAll
			e.issueBlock = nilRef
			if e.blocks.flags[ab]&abWillFault != 0 {
				// Perfect mode: the chain diverges from the trace; the
				// assert fault will redirect, so fetch pauses here instead
				// of fabricating a wrong path.
				e.issueStall = true
				e.nextBlockID = ir.NoBlock
				return
			}
		}
	}
}

// openBlock activates a new basic block for issue, reserving its node range
// and checkpointing the speculative state needed to squash back to its
// entry.
func (e *dynamicEngine) openBlock(id ir.BlockID, seqFloor int64) {
	if e.fill != nil {
		id = e.fillRedirect(id)
	}
	ab := e.blocks.alloc()
	bs := &e.blocks
	t := e.dec.of(e.img.Prog, id)
	bs.xb[ab] = e.img.Prog.Block(id)
	bs.tmpl[ab] = t
	bs.base[ab] = e.nodes.allocRange(len(t.nodes), seqFloor, e.cycle)
	bs.seq0[ab] = e.seq
	bs.rsSnap[ab] = e.rs
	bs.cursorSnap[ab] = int32(e.cursor)
	if e.pred != nil {
		bs.predSnap[ab] = e.pred.Checkpoint()
	}
	bs.renSnap[ab] = e.rename
	if e.img.Cfg.Branch == machine.Perfect {
		chain := e.img.ChainOf(id)
		match := 0
		for match < len(chain) && e.cursor+match < len(e.trace) &&
			chain[match] == e.trace[e.cursor+match] {
			match++
		}
		if match < len(chain) {
			bs.flags[ab] |= abWillFault
		}
		if match == 0 {
			match = 1 // desynced (transient wrong path): keep moving
		}
		e.cursor += match
	}
	e.active.pushBack(ab)
	e.issueBlock = ab
	e.issueTmpl = t
}

// wireOperand resolves one operand of node nd (whose slot is sl; the node
// store grows only when a block opens, so the pointer stays valid). prod is
// the template's in-block producer index for the operand and r its
// register. The result is a value if the producer is retired or done,
// else a producer link plus a pending count on nd. An in-block producer
// wakes nd from the template at completion; one from an older block gets a
// consumer edge in the arena.
func (e *dynamicEngine) wireOperand(nd nref, sl *nodeSlot, base nref, prod int32, r ir.Reg) (src nref, val int32) {
	if prod >= 0 {
		p := base + prod
		if ps := &e.nodes.d[p]; ps.status&nsStateMask == nsDone {
			return nilRef, ps.val
		}
		sl.pending++
		return p, 0
	}
	if prod == tmplNone {
		return nilRef, 0
	}
	en := &e.rename[r]
	if en.prod == nilRef {
		return nilRef, en.val
	}
	ns := &e.nodes
	ps := &ns.d[en.prod]
	if ps.status&nsStateMask == nsDone {
		return nilRef, ps.val
	}
	ns.edges.add(&ps.consHead, nd)
	sl.pending++
	return en.prod, 0
}

// issueNode issues node idx of block ab (template entry tn) into slot
// base+idx of the block's range.
func (e *dynamicEngine) issueNode(ab bref, idx int32, tn *tmplNode, isTerm bool) {
	base := e.blocks.base[ab]
	nd := base + idx
	n := tn.n
	meta := tn.meta
	sl := &e.nodes.d[nd]
	sl.n = n
	sl.op = n.Op
	sl.blk = ab
	sl.seq = e.seq
	// Recycled slots are not zeroed (soa.go); clear the two fields
	// wireOperand and the scheduler read before this issue writes them.
	sl.status = 0
	sl.pending = 0
	e.seq++
	e.liveNodes++
	sl.srcA, sl.valA = e.wireOperand(nd, sl, base, tn.prodA, n.A)
	sl.srcB, sl.valB = e.wireOperand(nd, sl, base, tn.prodB, n.B)
	e.blocks.issued[ab] = idx + 1

	switch {
	case meta&metaStore != 0:
		e.unknownQ.pushBack(nd)
		e.blocks.stores[ab] = append(e.blocks.stores[ab], nd)
	case n.Op == ir.Assert:
		e.blocks.asserts[ab] = append(e.blocks.asserts[ab], nd)
	}
	if meta&metaHasDst != 0 {
		e.rename[n.Dst] = renEntry{prod: nd}
	}
	if isTerm {
		e.blocks.term[ab] = nd
		e.resolveTerminator(ab, nd)
	}
	if sl.pending == 0 {
		e.makeReady(nd)
	}
	e.logIssue(nd)
}

// resolveTerminator decides where issue continues after a terminator,
// predicting conditional branches (BTB or trace oracle) and tracking the
// speculative return stack.
func (e *dynamicEngine) resolveTerminator(ab bref, nd nref) {
	b := e.blocks.xb[ab]
	n := e.nodes.d[nd].n
	switch n.Op {
	case ir.Br:
		e.blocks.flags[ab] |= abTermIsBranch
		var predTaken bool
		if e.img.Cfg.Branch == machine.Perfect {
			predTaken = e.oraclePredict(b)
		} else {
			var token uint64
			predTaken, token = e.pred.Predict(b.ID)
			e.blocks.predToken[ab] = token
		}
		if predTaken {
			e.blocks.flags[ab] |= abTermPredTaken
			e.nextBlockID = n.Target
		} else {
			e.nextBlockID = b.Fall
		}
	case ir.Jmp:
		e.nextBlockID = n.Target
	case ir.Call:
		depth := 1
		if e.rs != nil {
			depth = e.rs.depth + 1
		}
		rs := e.rspool.get()
		rs.target = b.Fall
		rs.parent = e.rs
		rs.depth = depth
		e.rs = rs
		e.nextBlockID = e.img.Prog.Func(n.Callee).Entry
	case ir.Ret:
		if e.rs == nil {
			// Return with an empty speculative stack: only reachable on a
			// wrong path; pause fetch until the squash redirects.
			e.issueStall = true
			e.nextBlockID = ir.NoBlock
			return
		}
		e.nextBlockID = e.rs.target
		e.rs = e.rs.parent
	case ir.Halt:
		e.issueStall = true
		e.nextBlockID = ir.NoBlock
	}
}

// oraclePredict derives the true direction of a conditional branch from the
// recorded trace: the next original entry block to execute.
func (e *dynamicEngine) oraclePredict(b *ir.Block) bool {
	if e.cursor >= len(e.trace) {
		return false
	}
	next := e.trace[e.cursor]
	takenStart := e.img.ChainOf(b.Term.Target)[0]
	fallStart := e.img.ChainOf(b.Fall)[0]
	switch {
	case takenStart == next && fallStart != next:
		return true
	case fallStart == next && takenStart != next:
		return false
	default:
		return takenStart == next
	}
}

// ---------- squash ----------

// squashOldestOffender processes at most one control-flow violation per
// cycle: the oldest among resolved mispredicted branches and actionable
// assert faults. Oldest-first fault processing is what lets the loader
// omit asserts from fault-recovery prefix blocks.
func (e *dynamicEngine) squashOldestOffender() {
	ns := &e.nodes
	best := nilRef
	bestFault := false

	live := e.mispredicted[:0]
	for _, nd := range e.mispredicted {
		if ns.d[nd].status&(nsSquashed|nsHandled) != 0 {
			continue
		}
		live = append(live, nd)
		if best == nilRef || ns.d[nd].seq < ns.d[best].seq {
			best, bestFault = nd, false
		}
	}
	e.mispredicted = live

	liveF := e.pendingFaults[:0]
	for _, nd := range e.pendingFaults {
		if ns.d[nd].status&(nsSquashed|nsHandled) != 0 {
			continue
		}
		liveF = append(liveF, nd)
		if e.faultActionable(nd) && (best == nilRef || ns.d[nd].seq < ns.d[best].seq) {
			best, bestFault = nd, true
		}
	}
	e.pendingFaults = liveF

	if best == nilRef {
		return
	}
	ns.d[best].status |= nsHandled
	if bestFault {
		e.processFault(best)
	} else {
		// Drop the offender from the list now: its block may retire (and
		// the node be recycled) before the next cycle's sweep would have
		// removed the handled entry. (A fault offender needs no explicit
		// removal — processing squashes its own block, and squashFrom
		// already filters squashed entries out of both offender lists.)
		e.removeOffender(&e.mispredicted, best)
		e.processMispredict(best)
	}
}

func (e *dynamicEngine) removeOffender(list *[]nref, nd nref) {
	for i, o := range *list {
		if o == nd {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}

// faultActionable reports whether every older assert in the same block has
// executed (so this fault is the block's oldest divergence).
func (e *dynamicEngine) faultActionable(nd nref) bool {
	ns := &e.nodes
	seq := ns.d[nd].seq
	for _, a := range e.blocks.asserts[ns.d[nd].blk] {
		if ns.d[a].seq >= seq {
			break
		}
		if ns.state(a) != nsDone {
			return false
		}
	}
	return true
}

// restoreRename restores a checkpointed rename table, harvesting every
// completed producer it references: a snapshot may be older than the
// completion-time harvest, so without this the restored table could carry
// a done node's index past its recycling quarantine.
func (e *dynamicEngine) restoreRename(snap *[ir.NumRegs]renEntry) {
	e.rename = *snap
	ns := &e.nodes
	for r := range e.rename {
		if p := e.rename[r].prod; p != nilRef && ns.state(p) == nsDone {
			e.rename[r] = renEntry{prod: nilRef, val: ns.d[p].val}
		}
	}
}

func (e *dynamicEngine) processMispredict(nd nref) {
	ns := &e.nodes
	ab := ns.d[nd].blk
	// Find the offender's position among active blocks.
	pos := e.blockIndex(ab)
	if pos < 0 {
		return // block already gone (should not happen)
	}
	if pos+1 < e.active.len() {
		restore := e.active.at(pos + 1)
		e.restoreRename(&e.blocks.renSnap[restore])
		e.rs = e.blocks.rsSnap[restore]
		e.cursor = int(e.blocks.cursorSnap[restore])
		e.squashFrom(pos + 1)
	}
	if e.pred != nil {
		// Repair speculative history: rewind to the fetch-time state and
		// push the now-known direction.
		e.pred.Restore(e.blocks.predToken[ab])
		e.pred.Push(ns.d[nd].val != 0)
	}
	e.logOffender(PipeMispredict, nd)
	e.st.Mispredicts++
	if ns.d[nd].val != 0 {
		e.nextBlockID = ns.d[nd].n.Target
	} else {
		e.nextBlockID = e.blocks.xb[ab].Fall
	}
	e.issueBlock = nilRef
	e.issueStall = false
}

func (e *dynamicEngine) processFault(nd nref) {
	ns := &e.nodes
	ab := ns.d[nd].blk
	pos := e.blockIndex(ab)
	if pos < 0 {
		return
	}
	// A fault-injected early load in this block may have fed the assert a
	// stale value, making the divergence an artifact of the injection rather
	// than of the enlargement. Replay the block from its checkpoint instead
	// of taking the fault exit: a genuine divergence fires again on the
	// clean replay, so the retired block sequence stays identical to an
	// uninjected run's.
	if e.injLive > 0 {
		suspect, unsafe := false, false
		lo, hi := e.blocks.nodes(ab)
		for x := lo; x < hi; x++ {
			if ns.d[x].status&nsInjected != 0 {
				suspect = true
			}
			if st := ns.state(x); ns.d[x].op == ir.Sys && (st == nsExecuting || st == nsDone) {
				unsafe = true
			}
		}
		if suspect && !unsafe {
			e.injectedSquash(pos, ab)
			return
		}
	}
	e.restoreRename(&e.blocks.renSnap[ab])
	e.rs = e.blocks.rsSnap[ab]
	e.cursor = int(e.blocks.cursorSnap[ab])
	e.squashFrom(pos)
	if e.pred != nil {
		e.pred.Restore(e.blocks.predSnap[ab])
	}
	if e.fill != nil {
		e.observeFault(ab)
	}
	e.logOffender(PipeFault, nd)
	e.st.Faults++
	e.nextBlockID = ns.d[nd].n.Target
	e.issueBlock = nilRef
	e.issueStall = false
}

func (e *dynamicEngine) blockIndex(ab bref) int {
	for i := 0; i < e.active.len(); i++ {
		if e.active.at(i) == ab {
			return i
		}
	}
	return -1
}

// squashFrom discards active[from:]: their executed nodes become the
// redundant work Figure 6 measures, their write-buffer entries and
// disambiguation state vanish, the blocked-load, offender and
// disambiguation lists drop their nodes eagerly, and each block's node
// range enters the recycling quarantine as one entry. Ready-queue entries
// stay behind as tombstones that peek discards, and the completion timeline's
// entries are skipped via the squashed flag; the range's cycle watermark
// keeps it unreused until the wheel has provably passed them.
func (e *dynamicEngine) squashFrom(from int) {
	e.logSquash(e.active.len() - from)
	ns := &e.nodes
	firstSeq := e.blocks.seq0[e.active.at(from)]
	for i := from; i < e.active.len(); i++ {
		ab := e.active.at(i)
		lo, hi := e.blocks.nodes(ab)
		e.liveNodes -= int64(hi - lo)
		cycleWM := e.cycle + timelineSlots
		for nd := lo; nd < hi; nd++ {
			ns.d[nd].status |= nsSquashed
			if ns.d[nd].status&nsInjected != 0 {
				// An injected load squashed with its block needs no
				// retirement verification: the replay is the repair.
				ns.d[nd].status &^= nsInjected
				e.injLive--
				e.st.RepairedFaults++
			}
			st := ns.state(nd)
			if st == nsExecuting || st == nsDone {
				e.st.DiscardedNodes++
			}
			if ns.d[nd].op.IsStore() {
				e.memEpoch++ // a squashed store may have been blocking a load
				if st == nsExecuting || st == nsDone {
					e.removeWBEntries(nd)
				}
			}
			if d := ns.d[nd].doneAt + 1; d > cycleWM {
				cycleWM = d // overflow-wheel entries outlive the ring's span
			}
			ns.edges.freeList(&ns.d[nd].consHead)
		}
		e.freeBlock(ab, cycleWM)
	}
	// Squashed stores are exactly the disambiguation queue's tail (issue
	// order); discard them.
	for e.unknownQ.len() > 0 && ns.d[e.unknownQ.back()].seq >= firstSeq {
		e.unknownQ.popBack()
	}
	e.blockedLoadGhosts += e.filterSquashed(&e.blockedLoads)
	e.filterSquashed(&e.mispredicted)
	e.filterSquashed(&e.pendingFaults)
	e.active.truncate(from)
}

// filterSquashed drops squashed nodes from a list in place, preserving
// order, and returns how many were dropped.
func (e *dynamicEngine) filterSquashed(list *[]nref) int {
	d := e.nodes.d
	live := (*list)[:0]
	for _, nd := range *list {
		if d[nd].status&nsSquashed == 0 {
			live = append(live, nd)
		}
	}
	dropped := len(*list) - len(live)
	*list = live
	return dropped
}

func (e *dynamicEngine) removeWBEntries(snd nref) {
	ns := &e.nodes
	for _, g := range granulesOf(int64(ns.d[snd].addr), int64(ns.d[snd].msize)) {
		if g < 0 {
			continue
		}
		list := e.wb[g]
		for i, en := range list {
			if en == snd {
				e.wb[g] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	e.wbStores--
}
