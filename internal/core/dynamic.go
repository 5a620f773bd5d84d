package core

import (
	"context"

	"fgpsim/internal/branch"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/mem"
	"fgpsim/internal/stats"
)

// The dynamic engine implements HPS-style restricted dataflow: nodes are
// issued in predicted program order into an instruction window bounded by a
// number of active basic blocks, decoupled from each other through register
// renaming (producer links), and scheduled to function units the cycle
// their operands become ready. Memory addresses are disambiguated at run
// time: a load executes once every older store's address is known, reading
// memory overlaid with older write-buffer entries. Stores execute into the
// write buffer and drain to memory when their block retires. Speculation is
// checkpointed per basic block; branch mispredictions squash all younger
// blocks, and assert faults (enlarged blocks) additionally discard the
// faulting block itself and restart at its fault-to target.
//
// In-flight state lives in structure-of-arrays stores (soa.go): a node is
// an int32 index whose fields are columns of parallel slices, so the
// per-cycle loops scan contiguous status and sequence arrays instead of
// chasing pointers, and a run allocates only while its working set grows.
// The recycling safety argument lives with the stores.

type dynamicEngine struct {
	img  *loader.Image
	env  *env
	ms   *mem.System
	pred branch.DirectionPredictor
	st   *stats.Run
	lim  Limits

	window int
	imem   int // memory ports
	ialu   int // ALU units
	itotal int // total issue/schedule cap (sequential model: 1)

	cycle int64
	seq   int64

	active abRing // active blocks, oldest first

	// Structure-of-arrays stores (soa.go) and the decode cache (dec.go).
	nodes  nodeStore
	blocks blockStore
	rspool rsPool
	dec    decTable

	// Issue state.
	rename      [ir.NumRegs]renEntry
	rs          *rsNode
	issueBlock  bref       // block currently being issued into (nilRef = none)
	issueTmpl   *blockTmpl // issueBlock's template
	nextBlockID ir.BlockID // where issue continues once a new block opens
	issueStall  bool       // stop issuing (halt seen, empty return stack, oracle fault)

	// Perfect-prediction state.
	trace  []ir.BlockID
	cursor int

	// Ready queues by function-unit class: min-heaps on seq, so the
	// scheduler always picks the oldest ready node (soa.go).
	readyMem readyQ
	readyALU readyQ

	// Completion timeline: the bucketed event wheel keyed by ready-cycle,
	// with an overflow list guarding against latencies at or beyond the
	// ring's span (soa.go).
	wheel eventWheel

	// liveNodes counts issued, unretired nodes (window occupancy stats).
	liveNodes int64

	blockSizes blockSizeHist

	// Memory disambiguation state. unknownQ holds issued stores in seq
	// order; executed entries leave lazily from the front, squashed ones
	// eagerly from the back, so the head yields the minimum unknown-address
	// store seq in O(1) amortized.
	wb           map[int64][]nref // granule (addr>>2) -> executed stores, seq order
	wbStores     int              // stores buffered in wb (loads skip the map at 0)
	unknownQ     ndRing
	blockedLoads []nref // loads waiting for disambiguation
	ovScratch    []nref // loadValue's overlap workspace

	// blockedLoadGhosts counts squashed entries removed eagerly from
	// blockedLoads at squash time. The retry gate below must still see
	// them: with lazy removal they kept the list non-empty, so a retry pass
	// would run and consume the current memEpoch even when every entry was
	// dead. Counting them preserves that retry cadence exactly (scheduling
	// order is part of the engine's contract with the figure tables).
	blockedLoadGhosts int

	// memEpoch increments whenever store state changes in a way that could
	// unblock a waiting load; blocked loads retry only then.
	memEpoch      int64
	lastLoadRetry int64

	// Offenders discovered this cycle / pending faults.
	mispredicted  []nref
	pendingFaults []nref

	// fill is the run-time enlargement state (FillUnit mode only).
	fill *fillUnit

	// pipe records pipeline events when attached via Limits.
	pipe *PipeLog

	// ctx, when non-nil, cancels the run (checked every ctxCheckPeriod
	// cycles). runErr poisons the run: the loop returns it instead of
	// continuing (bad image node, unrecoverable injected fault).
	ctx    context.Context
	runErr error

	// injLive counts in-flight injected loads (ForceMemViolation) so the
	// retire path only pays for verification when one is outstanding.
	injLive int

	// Checkpoint state (checkpoint.go). ckptArmed gates the per-cycle
	// cadence test so the checkpoint-off hot path pays one bool test;
	// draining stops issue from opening new blocks until the window empties
	// and a snapshot is taken; preempting turns that snapshot into a
	// *PreemptedError return.
	ckptArmed  bool
	ckptEvery  int64
	lastCkpt   int64
	draining   bool
	preempting bool

	finished bool
}

func newDynamicEngine(img *loader.Image, in0, in1 []byte, trace []ir.BlockID, lim Limits) *dynamicEngine {
	cfg := img.Cfg
	e := &dynamicEngine{
		img:        img,
		env:        newEnv(img.Prog, in0, in1),
		ms:         mem.New(cfg.Mem),
		st:         stats.New(),
		lim:        lim,
		window:     cfg.EffectiveWindow(),
		imem:       cfg.Issue.Mem,
		ialu:       cfg.Issue.ALU,
		itotal:     cfg.Issue.Total(),
		trace:      trace,
		wb:         make(map[int64][]nref),
		issueBlock: nilRef,
	}
	e.nodes.edges = newEdgeArena()
	if cfg.Branch != machine.Perfect {
		e.pred = e.newPredictor(nil)
	}
	if cfg.Branch == machine.FillUnit {
		e.fill = newFillUnit()
	}
	e.pipe = lim.Pipe
	e.ckptArmed = lim.checkpointArmed()
	e.ckptEvery = lim.CheckpointEvery
	for r := range e.rename {
		e.rename[r] = renEntry{prod: nilRef, val: 0}
	}
	e.rename[ir.RegSP] = renEntry{prod: nilRef, val: ir.InitialSP(img.Prog.MemSize)}
	e.nextBlockID = img.Prog.Func(img.Prog.Entry).Entry
	return e
}

// SetHints installs static branch prediction hints (keyed by original
// block IDs; the image's TermOrig mapping is applied internally).
func (e *dynamicEngine) SetHints(hints map[ir.BlockID]bool) {
	if e.pred == nil {
		return
	}
	mapped := make(map[ir.BlockID]bool, len(hints))
	for _, b := range e.img.Prog.Blocks {
		if b.Term.Op == ir.Br {
			if h, ok := hints[e.img.TermOrigOf(b.ID)]; ok {
				mapped[b.ID] = h
			}
		}
	}
	e.pred = e.newPredictor(mapped)
}

// newPredictor builds the configured direction predictor.
func (e *dynamicEngine) newPredictor(hints map[ir.BlockID]bool) branch.DirectionPredictor {
	cfg := e.img.Cfg
	if cfg.Predictor == machine.GSharePredictor {
		bits := cfg.GShareBits
		if bits == 0 {
			bits = machine.DefaultGShareBits
		}
		return branch.NewGShare(bits, hints)
	}
	entries := cfg.BTBEntries
	if entries == 0 {
		entries = machine.DefaultBTBEntries
	}
	return branch.TwoBitAdapter{BTB: branch.New(entries, hints)}
}

// seqFloor is the oldest active block's entry sequence — no reference to a
// range freed at or after it can still be held (soa.go's seq watermark).
func (e *dynamicEngine) seqFloor() int64 {
	if e.active.len() == 0 {
		return noSeqFloor
	}
	return e.blocks.seq0[e.active.front()]
}

func (e *dynamicEngine) run() (*RunResult, error) {
	maxCycles := e.lim.maxCycles()
	for !e.finished {
		if e.runErr != nil {
			return nil, e.runErr
		}
		if e.cycle > maxCycles {
			return nil, &CycleLimitError{e.cycle}
		}
		if e.cycle&(ctxCheckPeriod-1) == 0 {
			if e.lim.Heartbeat != nil {
				e.lim.Heartbeat.Add(1)
			}
			if e.ctx != nil {
				if cerr := e.ctx.Err(); cerr != nil {
					return nil, &CanceledError{Cycle: e.cycle, Err: cerr}
				}
			}
			if e.lim.Preempt != nil && e.lim.Preempt.Load() {
				// With a cadence armed, preemption waits for the next
				// cadence drain: the snapshot then lands on a boundary the
				// uninterrupted cadence run also visits, so the resumed run
				// stays bit-identical to it. Without a cadence there is no
				// such boundary to hit and the drain starts immediately.
				e.preempting = true
				if e.ckptEvery <= 0 {
					e.draining = true
				}
			}
		}
		if e.ckptArmed && e.ckptEvery > 0 && e.cycle-e.lastCkpt >= e.ckptEvery {
			// Exact cadence, checked every armed cycle: the drain point is
			// part of the run's timing identity, so it cannot ride the
			// amortized gate above (short runs would never checkpoint).
			e.draining = true
		}
		e.completions()
		e.retire()
		if e.runErr != nil {
			return nil, e.runErr
		}
		if e.finished {
			break
		}
		// A drain completes when the window is empty and issue is not
		// wedged on a wrong path: every issued block has committed, which
		// is the quiescent boundary checkpoints are defined at. This sits
		// before the fault hook so a resumed run re-enters the loop at the
		// same point the snapshot was taken and draws the identical
		// injection stream.
		if e.draining && e.active.len() == 0 && !e.issueStall {
			if err := e.checkpointNow(); err != nil {
				return nil, err
			}
		}
		// The fault hook fires at the engine's consistent point: retirement
		// is done, nothing has issued or executed yet this cycle.
		if e.lim.Fault != nil {
			e.lim.Fault(e)
			if e.runErr != nil {
				return nil, e.runErr
			}
		}
		// Issue before schedule: a node issued this cycle whose operands
		// are already available may be scheduled in the same cycle, so a
		// window-1 machine keeps pace with the statically scheduled one
		// (the paper's "does little better than static scheduling").
		e.issue()
		e.schedule()
		e.squashOldestOffender()
		e.st.WindowBlockSum += int64(e.active.len())
		e.st.WindowNodeSum += e.liveNodes
		e.cycle++
	}
	e.st.Cycles = e.cycle
	e.blockSizes.fold(e.st)
	if e.ms.Cache != nil {
		e.st.CacheHits = e.ms.Cache.Hits
		e.st.CacheMisses = e.ms.Cache.Misses
	}
	return &RunResult{Output: e.env.out, Stats: e.st}, nil
}

// ---------- completion ----------

func (e *dynamicEngine) completions() {
	nodes := e.wheel.take(e.cycle)
	if len(nodes) == 0 {
		return
	}
	ns := &e.nodes
	bs := &e.blocks
	for _, nd := range nodes {
		if ns.d[nd].status&nsSquashed != 0 {
			continue
		}
		ns.setState(nd, nsDone)
		ab := ns.d[nd].blk
		bs.nDone[ab]++
		e.logDone(nd)
		op := ns.d[nd].op
		if op.IsStore() {
			e.memEpoch++ // conservative-mode loads wait for store completion
		}
		// Wake the block's issued consumers from the template (a block is
		// squashed whole, so they are live), then the cross-block ones
		// through the edge list, which goes back to the arena. Consumers
		// not issued yet find this node done when they wire.
		base, t, issued := bs.base[ab], bs.tmpl[ab], bs.issued[ab]
		tn := &t.nodes[nd-base]
		for _, j := range t.cons[tn.consLo:tn.consHi] {
			if j >= issued {
				break
			}
			c := &ns.d[base+j]
			c.pending--
			if c.pending == 0 && c.status&nsStateMask == nsWaiting {
				e.makeReady(base + j)
			}
		}
		for i := ns.d[nd].consHead; i != nilRef; i = ns.edges.next[i] {
			c := ns.edges.to[i]
			if ns.d[c].status&nsSquashed != 0 {
				continue
			}
			ns.d[c].pending--
			if ns.d[c].pending == 0 && ns.state(c) == nsWaiting {
				e.makeReady(c)
			}
		}
		ns.edges.freeList(&ns.d[nd].consHead)
		// Harvest the rename entry: a completed producer's value is final,
		// so the table keeps the value instead of the node. This bounds how
		// long the table can reference the node — a requirement for
		// recycling its range after retirement.
		if op.HasDst() {
			if en := &e.rename[ns.d[nd].n.Dst]; en.prod == nd {
				en.prod = nilRef
				en.val = ns.d[nd].val
			}
		}
	}
}

func (e *dynamicEngine) makeReady(nd nref) {
	ns := &e.nodes
	ns.setState(nd, nsReady)
	if ns.d[nd].op.IsMem() {
		e.readyMem.push(ns.d[nd].seq, nd)
	} else {
		e.readyALU.push(ns.d[nd].seq, nd)
	}
}

// ---------- retire ----------

func (e *dynamicEngine) retire() {
	ns := &e.nodes
	for e.active.len() > 0 {
		ab := e.active.front()
		if !e.blocks.complete(ab) || e.hasPendingFault(ab) {
			return
		}
		if e.injLive > 0 && !e.verifyInjected(ab) {
			return // replayed from checkpoint, or the run is poisoned
		}
		// Drain the block's write-buffer entries to memory in order.
		for _, snd := range e.blocks.stores[ab] {
			if ns.state(snd) != nsDone {
				continue
			}
			e.commitStore(snd)
		}
		size := int(e.blocks.issued[ab])
		e.st.RetiredNodes += int64(size)
		e.liveNodes -= int64(size)
		e.st.RetiredBlocks++
		e.blockSizes.add(size)
		term := e.blocks.term[ab]
		flags := e.blocks.flags[ab]
		if term != nilRef && flags&abTermIsBranch != 0 {
			actual := ns.d[term].val != 0
			e.st.Branches++
			if actual == (flags&abTermPredTaken != 0) {
				e.st.BranchesCorrect++
			}
			if e.pred != nil {
				e.pred.Update(e.blocks.xb[ab].ID, actual, e.blocks.predToken[ab])
			}
		}
		if term != nilRef && ns.d[term].op == ir.Halt {
			e.finished = true
		}
		if e.fill != nil {
			e.observeRetire(ab)
		}
		e.logRetire(ab)
		e.active.popFront()
		// The retiring block's stores are all done, so they form the
		// disambiguation queue's front prefix; drop them now so no queue
		// entry outlives its node.
		for e.unknownQ.len() > 0 && ns.state(e.unknownQ.front()) == nsDone {
			e.unknownQ.popFront()
		}
		// Every node is done, so no wheel entry outlives the ring's span.
		e.freeBlock(ab, e.cycle+timelineSlots)
		// Retirement may make blocked syscalls non-speculative; the
		// scheduler's merged pop loop reconsiders them next cycle without
		// any re-queuing here.
	}
}

// freeBlock recycles a retired or squashed block and its node range. The
// range enters quarantine under the current issue sequence and the given
// cycle watermark; the block slot itself is immediately reusable (soa.go).
func (e *dynamicEngine) freeBlock(ab bref, cycleWM int64) {
	e.nodes.putRange(e.blocks.base[ab], len(e.blocks.tmpl[ab].nodes), e.seq, cycleWM)
	e.blocks.put(ab)
}

func (e *dynamicEngine) hasPendingFault(ab bref) bool {
	ns := &e.nodes
	for _, a := range e.blocks.asserts[ab] {
		if ns.state(a) == nsDone && ns.faulted(a) {
			return true
		}
	}
	return false
}

func (e *dynamicEngine) commitStore(snd nref) {
	ns := &e.nodes
	for _, gr := range granulesOf(int64(ns.d[snd].addr), int64(ns.d[snd].msize)) {
		if gr < 0 {
			continue
		}
		list := e.wb[gr]
		for i, en := range list {
			if en == snd {
				e.wb[gr] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	e.wbStores--
	e.env.mem.Store(int32(ns.d[snd].addr), int64(ns.d[snd].msize), ns.d[snd].val)
	e.ms.StoreTouch(int64(ns.d[snd].addr))
}

// granulesOf returns the word-granules an access touches.
func granulesOf(addr, size int64) [2]int64 {
	g0 := addr >> 2
	g1 := (addr + size - 1) >> 2
	if g1 == g0 {
		g1 = -1
	}
	return [2]int64{g0, g1}
}

// ---------- scheduling / execution ----------

func (e *dynamicEngine) schedule() {
	ns := &e.nodes
	memSlots, aluSlots, total := e.imem, e.ialu, e.itotal

	// Retry loads previously blocked on disambiguation, but only when some
	// store's state has changed since the last retry.
	if len(e.blockedLoads)+e.blockedLoadGhosts > 0 && e.memEpoch != e.lastLoadRetry {
		e.lastLoadRetry = e.memEpoch
		e.blockedLoadGhosts = 0
		retry := e.blockedLoads
		e.blockedLoads = e.blockedLoads[:0]
		for _, nd := range retry {
			if ns.d[nd].status&nsSquashed != 0 {
				continue
			}
			e.readyMem.push(ns.d[nd].seq, nd)
		}
	}

	for total > 0 && memSlots > 0 {
		nd, ok := e.readyMem.peek(ns.d)
		if !ok {
			break
		}
		if ns.d[nd].op.IsLoad() && !e.loadCanExecute(nd) {
			e.readyMem.pop()
			e.blockedLoads = append(e.blockedLoads, nd)
			continue
		}
		e.readyMem.pop()
		e.execute(nd)
		memSlots--
		total--
	}

	// Syscalls can only execute from the front block with every older
	// in-block node done, so deferred ones park on their own block (the
	// blocks.sys list) rather than churning through the heap or a global
	// side list every cycle. Only the front block's parked syscalls can have
	// become eligible, so only those re-enter the heap; parked lists on
	// younger blocks wait until their block reaches the front, and lists on
	// squashed blocks die with the block slot. Eligibility cannot change
	// mid-schedule (it requires older nodes *done*, and completions run
	// before schedule), so the executed set and order match the
	// check-every-candidate scheme exactly.
	if e.active.len() > 0 {
		front := e.active.front()
		if parked := e.blocks.sys[front]; len(parked) > 0 {
			for _, nd := range parked {
				e.readyALU.push(ns.d[nd].seq, nd)
			}
			e.blocks.sys[front] = parked[:0]
		}
	}
	for total > 0 && aluSlots > 0 {
		nd, ok := e.readyALU.peek(ns.d)
		if !ok {
			break
		}
		e.readyALU.pop()
		if ns.d[nd].op == ir.Sys && !e.sysCanExecute(nd) {
			blk := ns.d[nd].blk
			e.blocks.sys[blk] = append(e.blocks.sys[blk], nd)
			continue
		}
		e.execute(nd)
		aluSlots--
		total--
	}
}

// minUnknownStoreSeq returns the sequence number of the oldest issued store
// whose address is still unknown, popping finished entries off the queue.
// (Squashed entries never appear: squashFrom discards them eagerly.)
func (e *dynamicEngine) minUnknownStoreSeq() int64 {
	ns := &e.nodes
	for e.unknownQ.len() > 0 {
		h := e.unknownQ.front()
		if st := ns.state(h); st != nsWaiting && st != nsReady {
			e.unknownQ.popFront()
			continue
		}
		return ns.d[h].seq
	}
	return 1 << 62
}

// loadCanExecute checks run-time memory disambiguation: every older store
// must have a known address. Under the ConservativeMem ablation the load
// additionally waits for every older in-flight store to have executed,
// modeling a machine without run-time disambiguation hardware.
func (e *dynamicEngine) loadCanExecute(nd nref) bool {
	ns := &e.nodes
	seq := ns.d[nd].seq
	if e.minUnknownStoreSeq() < seq {
		return false
	}
	if e.img.Cfg.ConservativeMem {
		for i := 0; i < e.active.len(); i++ {
			ab := e.active.at(i)
			if e.blocks.seq0[ab] > seq {
				break
			}
			for _, snd := range e.blocks.stores[ab] {
				if ns.d[snd].seq < seq && ns.state(snd) != nsDone {
					return false
				}
			}
		}
	}
	return true
}

// sysCanExecute: system calls execute only when non-speculative — the block
// is the oldest active one and everything older inside it has executed.
func (e *dynamicEngine) sysCanExecute(nd nref) bool {
	ns := &e.nodes
	blk := ns.d[nd].blk
	if e.active.len() == 0 || e.active.front() != blk {
		return false
	}
	seq := ns.d[nd].seq
	lo, hi := e.blocks.nodes(blk)
	for other := lo; other < hi; other++ {
		if ns.d[other].seq >= seq {
			break
		}
		if ns.state(other) != nsDone {
			return false
		}
		if ns.faulted(other) {
			return false // the fault will discard this block
		}
	}
	return true
}

func (e *dynamicEngine) operand(src nref, imm int32) int32 {
	if src == nilRef {
		return imm
	}
	return e.nodes.d[src].val
}

func (e *dynamicEngine) execute(nd nref) {
	ns := &e.nodes
	ns.setState(nd, nsExecuting)
	e.st.ExecutedNodes++
	e.logExec(nd)
	a := e.operand(ns.d[nd].srcA, ns.d[nd].valA)
	b := e.operand(ns.d[nd].srcB, ns.d[nd].valB)
	lat := int64(1)
	op := ns.d[nd].op
	n := ns.d[nd].n

	switch {
	case op.IsPure():
		v, aerr := ir.EvalALU(op, a, b, n.Imm)
		if aerr != nil && e.runErr == nil {
			e.runErr = aerr
		}
		ns.d[nd].val = v

	case op.IsLoad():
		size := sizeOf(op)
		ns.d[nd].msize = int8(size)
		ns.d[nd].addr = uint32(e.env.mem.Clamp(a+int32(n.Imm), size))
		val, forwarded := e.loadValue(nd)
		ns.d[nd].val = val
		if forwarded {
			lat = mem.ForwardLatency
		} else {
			lat = int64(e.ms.LoadLatency(int64(ns.d[nd].addr)))
		}

	case op.IsStore():
		size := sizeOf(op)
		ns.d[nd].msize = int8(size)
		ns.d[nd].addr = uint32(e.env.mem.Clamp(a+int32(n.Imm), size))
		ns.d[nd].val = b
		e.memEpoch++
		e.wbStores++
		for _, g := range granulesOf(int64(ns.d[nd].addr), size) {
			if g >= 0 {
				e.wb[g] = e.insertBySeq(e.wb[g], nd)
			}
		}
		// A newly known store address may unblock younger loads.
		// (They are rechecked at the top of the next schedule phase.)

	case op == ir.Sys:
		ns.d[nd].val = e.env.syscall(n.Imm, a, b)

	case op == ir.Assert:
		ns.d[nd].val = a
		if (a != 0) != n.Expect {
			e.pendingFaults = append(e.pendingFaults, nd)
		}

	case op == ir.Br:
		ns.d[nd].val = a
		actual := a != 0
		flags := e.blocks.flags[ns.d[nd].blk]
		if actual != (flags&abTermPredTaken != 0) && flags&abWillFault == 0 {
			// A will-fault block's terminator never redirects fetch: the
			// assert fault discards the whole block anyway.
			e.mispredicted = append(e.mispredicted, nd)
		}

	default: // Jmp, Call, Ret, Halt: control already handled at issue
		ns.d[nd].val = 0
	}

	doneAt := e.cycle + lat
	ns.d[nd].doneAt = doneAt
	e.wheel.add(nd, doneAt, e.cycle)
}

func (e *dynamicEngine) insertBySeq(list []nref, snd nref) []nref {
	d := e.nodes.d
	seq := d[snd].seq
	i := len(list)
	for i > 0 && d[list[i-1]].seq > seq {
		i--
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = snd
	return list
}

// loadValue reads memory as of this load's position in program order:
// memory contents overlaid with all older write-buffer entries, oldest
// first. It reports whether any write-buffer entry contributed (store
// forwarding).
func (e *dynamicEngine) loadValue(nd nref) (int32, bool) {
	ns := &e.nodes
	var bytes [4]byte
	size := int64(ns.d[nd].msize)
	addr := int64(ns.d[nd].addr)
	seq := ns.d[nd].seq
	base := e.env.mem.Load(int32(addr), size)
	bytes[0] = byte(base)
	bytes[1] = byte(base >> 8)
	bytes[2] = byte(base >> 16)
	bytes[3] = byte(base >> 24)

	// Collect older overlapping stores. A store spanning both of the
	// load's granules appears in both granule lists; it is taken from the
	// list of its own first granule (gs[0], necessarily) and skipped in the
	// second, so each store contributes once.
	overlaps := e.ovScratch[:0]
	if e.wbStores > 0 {
		gs := granulesOf(addr, size)
		for gi, g := range gs {
			if g < 0 {
				continue
			}
			for _, snd := range e.wb[g] {
				if ns.d[snd].seq >= seq || ns.d[snd].status&nsSquashed != 0 {
					continue
				}
				if gi == 1 && int64(ns.d[snd].addr>>2) == gs[0] {
					continue
				}
				overlaps = append(overlaps, snd)
			}
		}
	}
	// Apply in seq order (wb lists are sorted; merging two granules needs
	// a stable order).
	for i := 1; i < len(overlaps); i++ {
		for j := i; j > 0; j-- {
			a, b := overlaps[j], overlaps[j-1]
			if ns.d[a].seq >= ns.d[b].seq {
				break
			}
			overlaps[j], overlaps[j-1] = b, a
		}
	}
	forwarded := false
	for _, snd := range overlaps {
		lo := int64(ns.d[snd].addr)
		hi := lo + int64(ns.d[snd].msize)
		for i := int64(0); i < size; i++ {
			p := addr + i
			if p >= lo && p < hi {
				bytes[i] = byte(ns.d[snd].val >> (8 * (p - lo)))
				forwarded = true
			}
		}
	}
	e.ovScratch = overlaps
	v := int32(bytes[0])
	if size == 4 {
		v |= int32(bytes[1])<<8 | int32(bytes[2])<<16 | int32(bytes[3])<<24
	}
	return v, forwarded
}
