// Package interp is the functional (untimed) interpreter for node-IR
// programs. It serves four roles in the reproduction:
//
//  1. Golden reference: every timed engine must produce byte-identical
//     output, which is how the simulators are validated.
//  2. Profiler: it collects the branch-arc densities the basic block
//     enlargement file builder consumes (the paper's first simulation run
//     on input set 1).
//  3. Trace recorder: it records the dynamic basic-block trace used for the
//     perfect branch prediction studies.
//  4. Enlarged-code semantics: it executes enlarged basic blocks
//     transactionally, so assert faults discard the block's work exactly
//     like the checkpointed hardware does.
package interp

import (
	"errors"
	"fmt"

	"fgpsim/internal/ir"
)

// Arc identifies a dynamic control transfer between two blocks.
type Arc struct {
	From, To ir.BlockID
}

// Profile aggregates what a profiling run observed.
type Profile struct {
	// Arcs counts control transfers from a block's terminator to its
	// dynamic successor (conditional branches only; these drive
	// enlargement).
	Arcs map[Arc]int64

	// Taken and NotTaken count conditional branch outcomes per block, which
	// supply the static prediction hints.
	Taken, NotTaken map[ir.BlockID]int64

	// Blocks counts block executions.
	Blocks map[ir.BlockID]int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Arcs:     make(map[Arc]int64),
		Taken:    make(map[ir.BlockID]int64),
		NotTaken: make(map[ir.BlockID]int64),
		Blocks:   make(map[ir.BlockID]int64),
	}
}

// Options configure a run.
type Options struct {
	// Profile, when non-nil, accumulates branch statistics.
	Profile *Profile

	// RecordTrace records the dynamic block sequence (entry block IDs in
	// execution order), used for perfect branch prediction.
	RecordTrace bool

	// MaxNodes aborts the run after this many retired nodes (0 = no limit),
	// a guard against accidental infinite loops in benchmark code.
	MaxNodes int64
}

// Result is what a completed run produced.
type Result struct {
	Output        []byte
	RetiredNodes  int64
	RetiredBlocks int64
	Faults        int64 // assert faults (enlarged programs only)
	Trace         []ir.BlockID
}

// ErrNodeLimit is returned when Options.MaxNodes is exceeded.
var ErrNodeLimit = errors.New("interp: node limit exceeded")

type undoStore struct {
	addr int64
	size int8
	old  [4]byte
}

// Machine executes a program functionally.
type Machine struct {
	prog *ir.Program
	mem  *ir.Memory
	regs [ir.NumRegs]int32

	in     [2][]byte
	inPos  [2]int
	output []byte

	retStack []ir.BlockID // continuation blocks

	opts Options
	res  Result

	// Transactional state for the current block.
	regUndo []regUndo
	memUndo []undoStore
}

type regUndo struct {
	r   ir.Reg
	old int32
}

// New creates a machine for one run. in0 and in1 are the two input streams
// (stream 1 may be nil).
func New(p *ir.Program, in0, in1 []byte, opts Options) *Machine {
	m := &Machine{prog: p, mem: ir.NewMemory(p), opts: opts}
	m.in[0] = in0
	m.in[1] = in1
	m.regs[ir.RegSP] = ir.InitialSP(p.MemSize)
	return m
}

// Run executes the program to completion and returns the result.
func Run(p *ir.Program, in0, in1 []byte, opts Options) (*Result, error) {
	m := New(p, in0, in1, opts)
	return m.Run()
}

// storeTx stores to memory, first logging the bytes it overwrites when the
// block executes transactionally.
func (m *Machine) storeTx(a int32, size int64, v int32, transactional bool) {
	if transactional {
		u := undoStore{addr: m.mem.Clamp(a, size), size: int8(size)}
		m.mem.Read(u.addr, u.old[:size])
		m.memUndo = append(m.memUndo, u)
	}
	m.mem.Store(a, size, v)
}

func (m *Machine) setReg(r ir.Reg, v int32, transactional bool) {
	if transactional {
		m.regUndo = append(m.regUndo, regUndo{r, m.regs[r]})
	}
	m.regs[r] = v
}

// Syscall executes a system call against the machine's streams.
func (m *Machine) Syscall(no int64, a, b int32) int32 {
	switch no {
	case ir.SysGetc:
		s := int(a) & 1
		if m.inPos[s] >= len(m.in[s]) {
			return -1
		}
		c := m.in[s][m.inPos[s]]
		m.inPos[s]++
		return int32(c)
	case ir.SysPutc:
		m.output = append(m.output, byte(a))
		return 0
	}
	return -1
}

// Run drives execution block by block.
func (m *Machine) Run() (*Result, error) {
	cur := m.prog.Func(m.prog.Entry).Entry
	for {
		next, halted, err := m.ExecBlock(cur)
		if err != nil {
			return nil, err
		}
		if halted {
			break
		}
		cur = next
	}
	m.res.Output = m.output
	return &m.res, nil
}

// ExecBlock executes one block transactionally and returns the successor.
// Assert faults roll the block back and return the fault target.
func (m *Machine) ExecBlock(id ir.BlockID) (next ir.BlockID, halted bool, err error) {
	b := m.prog.Block(id)
	if m.opts.RecordTrace && b.Orig == id {
		// Entry blocks only; enlarged programs are traced through Orig at
		// retirement by the engines, the interpreter traces originals.
		m.res.Trace = append(m.res.Trace, id)
	}
	tx := false
	for i := range b.Body {
		if b.Body[i].Op == ir.Assert {
			tx = true
			break
		}
	}
	if tx {
		m.regUndo = m.regUndo[:0]
		m.memUndo = m.memUndo[:0]
	}

	nodesDone := int64(0)
	for i := range b.Body {
		n := &b.Body[i]
		nodesDone++
		switch {
		case n.Op.IsPure():
			var a, bb int32
			if n.A != ir.NoReg {
				a = m.regs[n.A]
			}
			if n.B != ir.NoReg {
				bb = m.regs[n.B]
			}
			v, aerr := ir.EvalALU(n.Op, a, bb, n.Imm)
			if aerr != nil {
				return 0, false, aerr
			}
			m.setReg(n.Dst, v, tx)
		case n.Op == ir.Ld:
			m.setReg(n.Dst, m.mem.Load(m.regs[n.A]+int32(n.Imm), 4), tx)
		case n.Op == ir.LdB:
			m.setReg(n.Dst, m.mem.Load(m.regs[n.A]+int32(n.Imm), 1), tx)
		case n.Op == ir.St:
			m.storeTx(m.regs[n.A]+int32(n.Imm), 4, m.regs[n.B], tx)
		case n.Op == ir.StB:
			m.storeTx(m.regs[n.A]+int32(n.Imm), 1, m.regs[n.B], tx)
		case n.Op == ir.Sys:
			var a, bb int32
			if n.A != ir.NoReg {
				a = m.regs[n.A]
			}
			if n.B != ir.NoReg {
				bb = m.regs[n.B]
			}
			m.setReg(n.Dst, m.Syscall(n.Imm, a, bb), tx)
		case n.Op == ir.Assert:
			taken := m.regs[n.A] != 0
			if taken != n.Expect {
				// Fault: discard the whole block's work.
				m.rollback()
				m.res.Faults++
				return n.Target, false, m.countNodes(0) // discarded work retires nothing
			}
		default:
			return 0, false, fmt.Errorf("interp: unexpected node %s in block %d", n, id)
		}
	}

	m.res.RetiredBlocks++
	if m.opts.Profile != nil {
		m.opts.Profile.Blocks[id]++
	}
	if err := m.countNodes(nodesDone + 1); err != nil { // +1 for the terminator
		return 0, false, err
	}

	t := &b.Term
	switch t.Op {
	case ir.Br:
		taken := m.regs[t.A] != 0
		if m.opts.Profile != nil {
			if taken {
				m.opts.Profile.Taken[id]++
			} else {
				m.opts.Profile.NotTaken[id]++
			}
		}
		if taken {
			next = t.Target
		} else {
			next = b.Fall
		}
		if m.opts.Profile != nil {
			m.opts.Profile.Arcs[Arc{id, next}]++
		}
	case ir.Jmp:
		next = t.Target
	case ir.Call:
		m.retStack = append(m.retStack, b.Fall)
		next = m.prog.Func(t.Callee).Entry
	case ir.Ret:
		if len(m.retStack) == 0 {
			return 0, true, nil
		}
		next = m.retStack[len(m.retStack)-1]
		m.retStack = m.retStack[:len(m.retStack)-1]
	case ir.Halt:
		return 0, true, nil
	}
	return next, false, nil
}

func (m *Machine) countNodes(n int64) error {
	m.res.RetiredNodes += n
	if m.opts.MaxNodes > 0 && m.res.RetiredNodes > m.opts.MaxNodes {
		return ErrNodeLimit
	}
	return nil
}

func (m *Machine) rollback() {
	for i := len(m.memUndo) - 1; i >= 0; i-- {
		u := m.memUndo[i]
		m.mem.Write(u.addr, u.old[:u.size])
	}
	for i := len(m.regUndo) - 1; i >= 0; i-- {
		m.regs[m.regUndo[i].r] = m.regUndo[i].old
	}
	m.memUndo = m.memUndo[:0]
	m.regUndo = m.regUndo[:0]
}
