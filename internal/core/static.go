package core

import (
	"context"

	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/mem"
	"fgpsim/internal/stats"
)

// staticEngine models the statically scheduled machine: the translating
// loader packed each block into multinodewords; the engine issues one word
// per cycle, in order, stalling whenever any operand of the word is not yet
// ready (the hardware interlock that covers cache misses). Basic blocks
// execute one at a time — there is no speculation across block boundaries,
// which is why dynamic scheduling with a window of one block performs
// similarly (the paper's observation). Enlarged blocks execute
// transactionally: stores are buffered semantically by an undo log, and an
// assert fault discards the whole block's work.
type staticEngine struct {
	img *loader.Image
	env *env
	ms  *mem.System
	st  *stats.Run
	lim Limits
	ctx context.Context

	regs       [ir.NumRegs]int32
	regReadyAt [ir.NumRegs]int64
	retStack   []ir.BlockID

	blockSizes blockSizeHist

	// Transaction state for enlarged blocks.
	regSnap       [ir.NumRegs]int32
	readySnap     [ir.NumRegs]int64
	memUndo       []memUndo
	transactional bool

	// Checkpoint state (checkpoint.go). Static checkpoints land at block
	// boundaries, so arming them perturbs no timing at all.
	ckptEvery   int64
	lastCkpt    int64
	resumed     bool
	resumeBlock ir.BlockID
	resumeCycle int64
}

type memUndo struct {
	addr int64
	size int8
	old  [4]byte
}

func newStaticEngine(img *loader.Image, in0, in1 []byte, lim Limits) *staticEngine {
	e := &staticEngine{
		img: img,
		env: newEnv(img.Prog, in0, in1),
		ms:  mem.New(img.Cfg.Mem),
		st:  stats.New(),
		lim: lim,
	}
	e.regs[ir.RegSP] = ir.InitialSP(img.Prog.MemSize)
	e.ckptEvery = lim.CheckpointEvery
	return e
}

func (e *staticEngine) run() (*RunResult, error) {
	p := e.img.Prog
	cur := p.Func(p.Entry).Entry
	cycle := int64(0) // first issue cycle of the current block
	if e.resumed {
		cur, cycle = e.resumeBlock, e.resumeCycle
	}
	maxCycles := e.lim.maxCycles()

	blocks := int64(0)
	for {
		next, nextCycle, halted, err := e.execBlock(cur, cycle)
		if err != nil {
			return nil, err
		}
		if halted {
			e.st.Cycles = nextCycle
			e.blockSizes.fold(e.st)
			break
		}
		if nextCycle > maxCycles {
			return nil, &CycleLimitError{nextCycle}
		}
		if blocks++; blocks&(ctxCheckPeriod-1) == 0 {
			if e.lim.Heartbeat != nil {
				e.lim.Heartbeat.Add(1)
			}
			if e.ctx != nil {
				if cerr := e.ctx.Err(); cerr != nil {
					return nil, &CanceledError{Cycle: nextCycle, Err: cerr}
				}
			}
			if e.lim.Preempt != nil && e.lim.Preempt.Load() {
				return nil, &PreemptedError{Cycle: nextCycle, State: e.captureStatic(next, nextCycle)}
			}
		}
		if e.ckptEvery > 0 && nextCycle-e.lastCkpt >= e.ckptEvery {
			e.lastCkpt = nextCycle
			if e.lim.Checkpoint != nil {
				if cerr := e.lim.Checkpoint(e.captureStatic(next, nextCycle)); cerr != nil {
					return nil, cerr
				}
			}
		}
		cur, cycle = next, nextCycle
	}
	if e.ms.Cache != nil {
		e.st.CacheHits = e.ms.Cache.Hits
		e.st.CacheMisses = e.ms.Cache.Misses
	}
	return &RunResult{Output: e.env.out, Stats: e.st}, nil
}

func (e *staticEngine) beginTx() {
	e.regSnap = e.regs
	e.readySnap = e.regReadyAt
	e.memUndo = e.memUndo[:0]
	e.transactional = true
}

func (e *staticEngine) rollbackTx() {
	for i := len(e.memUndo) - 1; i >= 0; i-- {
		u := e.memUndo[i]
		e.env.mem.Write(u.addr, u.old[:u.size])
	}
	e.regs = e.regSnap
	e.regReadyAt = e.readySnap
	e.memUndo = e.memUndo[:0]
}

func (e *staticEngine) storeTx(a int32, size int64, v int32) {
	if e.transactional {
		u := memUndo{addr: e.env.mem.Clamp(a, size), size: int8(size)}
		e.env.mem.Read(u.addr, u.old[:size])
		e.memUndo = append(e.memUndo, u)
	}
	e.env.mem.Store(a, size, v)
}

// execBlock runs one block starting at cycle t0 and returns the successor
// block and its first issue cycle.
func (e *staticEngine) execBlock(id ir.BlockID, t0 int64) (next ir.BlockID, nextCycle int64, halted bool, err error) {
	b := e.img.Prog.Block(id)
	words, _ := e.img.Words(id)

	e.transactional = words.HasAssert()
	if e.transactional {
		e.beginTx()
	}

	issue := t0 - 1
	executed := int64(0)
	for i := 0; i < words.Len(); i++ {
		w := words.Word(i)
		// Interlock: the word issues when all its operands are ready.
		ready := issue + 1
		for _, idx := range w {
			n := e.nodeAt(b, idx)
			for _, r := range []ir.Reg{n.A, n.B} {
				if r != ir.NoReg && e.regReadyAt[r] > ready {
					ready = e.regReadyAt[r]
				}
			}
		}
		issue = ready

		// Execute the word's nodes in program (index) order.
		for _, idx := range w {
			n := e.nodeAt(b, idx)
			executed++
			e.st.ExecutedNodes++
			switch {
			case n.Op.IsPure():
				var a, bb int32
				if n.A != ir.NoReg {
					a = e.regs[n.A]
				}
				if n.B != ir.NoReg {
					bb = e.regs[n.B]
				}
				v, aerr := ir.EvalALU(n.Op, a, bb, n.Imm)
				if aerr != nil {
					return 0, 0, false, aerr
				}
				e.setReg(n.Dst, v, issue+1)

			case n.Op.IsLoad():
				addr := e.env.mem.Clamp(e.regs[n.A]+int32(n.Imm), sizeOf(n.Op))
				lat := int64(e.ms.LoadLatency(addr))
				e.setReg(n.Dst, e.env.mem.Load(e.regs[n.A]+int32(n.Imm), sizeOf(n.Op)), issue+lat)

			case n.Op.IsStore():
				addr := e.env.mem.Clamp(e.regs[n.A]+int32(n.Imm), sizeOf(n.Op))
				e.ms.StoreTouch(addr)
				e.storeTx(e.regs[n.A]+int32(n.Imm), sizeOf(n.Op), e.regs[n.B])

			case n.Op == ir.Sys:
				var a, bb int32
				if n.A != ir.NoReg {
					a = e.regs[n.A]
				}
				if n.B != ir.NoReg {
					bb = e.regs[n.B]
				}
				e.setReg(n.Dst, e.env.syscall(n.Imm, a, bb), issue+1)

			case n.Op == ir.Assert:
				taken := e.regs[n.A] != 0
				if taken != n.Expect {
					// Fault: discard the block's work, restart off-chain.
					e.rollbackTx()
					e.st.Faults++
					e.st.DiscardedNodes += executed
					return n.Target, issue + 2, false, nil
				}

			case n.Op.IsTerm():
				return e.terminate(b, n, issue, executed)
			}
		}
	}
	// A well-formed schedule ends with the terminator; reaching here means
	// the image's multinodewords are corrupt.
	return 0, 0, false, &ImageError{Block: int(id), Reason: "static schedule missing terminator"}
}

func (e *staticEngine) nodeAt(b *ir.Block, idx int32) *ir.Node {
	if int(idx) == len(b.Body) {
		return &b.Term
	}
	return &b.Body[idx]
}

// setReg writes a register value and tracks its ready time. The ready time
// only moves forward: an earlier long-latency write to the same register
// may still be outstanding, and the register stays busy until it lands.
func (e *staticEngine) setReg(r ir.Reg, v int32, readyAt int64) {
	e.regs[r] = v
	if readyAt > e.regReadyAt[r] {
		e.regReadyAt[r] = readyAt
	}
}

// terminate handles the block terminator and retirement bookkeeping.
func (e *staticEngine) terminate(b *ir.Block, n *ir.Node, issue int64, executed int64) (ir.BlockID, int64, bool, error) {
	size := len(b.Body) + 1
	e.st.RetiredNodes += executed
	e.st.RetiredBlocks++
	e.blockSizes.add(size)
	nextCycle := issue + 1

	switch n.Op {
	case ir.Br:
		taken := e.regs[n.A] != 0
		e.st.Branches++
		// No speculation: the machine simply waits for resolution, so
		// every branch is effectively "correct".
		e.st.BranchesCorrect++
		if taken {
			return n.Target, nextCycle, false, nil
		}
		return b.Fall, nextCycle, false, nil
	case ir.Jmp:
		return n.Target, nextCycle, false, nil
	case ir.Call:
		e.retStack = append(e.retStack, b.Fall)
		return e.img.Prog.Func(n.Callee).Entry, nextCycle, false, nil
	case ir.Ret:
		if len(e.retStack) == 0 {
			return 0, nextCycle, true, nil
		}
		next := e.retStack[len(e.retStack)-1]
		e.retStack = e.retStack[:len(e.retStack)-1]
		return next, nextCycle, false, nil
	case ir.Halt:
		return 0, nextCycle, true, nil
	}
	return 0, 0, false, &ImageError{Block: int(b.ID), Reason: "bad terminator " + n.Op.String()}
}
