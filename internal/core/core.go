// Package core contains the run-time simulator engines (the paper's sim):
// a statically scheduled in-order engine with hardware interlocks, and a
// dynamically scheduled restricted-dataflow engine with an instruction
// window, checkpointed speculative execution, run-time memory
// disambiguation, and a write buffer. Both engines execute programs
// functionally while modeling timing cycle by cycle, and both must produce
// output byte-identical to the functional interpreter — that invariant is
// the test suite's backbone.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// RunResult bundles a finished simulation.
type RunResult struct {
	Output []byte
	Stats  *stats.Run
}

// Limits guards simulations against runaway configurations and carries
// optional observability hooks.
type Limits struct {
	// MaxCycles aborts the run when exceeded (0 = default of 2^40).
	MaxCycles int64

	// Pipe, when non-nil, records pipeline events of the first cycles
	// (dynamic engines only).
	Pipe *PipeLog

	// Fault, when non-nil, is invoked once per cycle of a dynamic run at
	// the engine's consistent point (after retirement, before issue) with a
	// port into the live machine state; fault injectors perturb the run
	// through it (faultport.go). Ignored by the static engine, whose
	// in-order transactional execution has no speculative state to corrupt.
	Fault FaultHook

	// Heartbeat, when non-nil, is incremented every ctxCheckPeriod cycles
	// (next to the cancellation check) by both engines. External watchdogs
	// poll it to distinguish a run that is slow from one that is stuck: a
	// live simulation keeps beating no matter how long it takes, so a
	// counter that stops advancing while the run is still in flight means
	// the engine has wedged (see internal/server's watchdog).
	Heartbeat *atomic.Int64

	// CheckpointEvery, when positive, takes a checkpoint roughly every N
	// cycles: the dynamic engine drains its instruction window to a
	// quiescent commit boundary (which perturbs timing — a cadence-N run is
	// its own timing universe), the static engine captures at the next block
	// boundary (no perturbation). When zero the checkpoint path costs one
	// predictable branch per cycle and allocates nothing.
	CheckpointEvery int64

	// Checkpoint, when non-nil, receives the engine state captured at each
	// checkpoint boundary. The state is a deep copy, safe to retain or
	// serialize. A non-nil error aborts the run with that error.
	Checkpoint func(*EngineState) error

	// Preempt, when non-nil, is polled at the amortized check gate; once it
	// reads true the engine drains to the next commit boundary and returns a
	// *PreemptedError carrying the snapshot (nil State for fill-unit runs,
	// which cannot be snapshotted — the caller re-runs those from scratch).
	Preempt *atomic.Bool

	// Resume, when non-nil, restores this snapshot into the engine before
	// cycle zero; the run continues exactly where the snapshot left off.
	// The caller is responsible for resuming against the identical image
	// and inputs (internal/snapshot's fingerprint enforces this).
	Resume *EngineState
}

func (l Limits) maxCycles() int64 {
	if l.MaxCycles > 0 {
		return l.MaxCycles
	}
	return 1 << 40
}

// Run simulates a loaded image on the two input streams. trace supplies
// the dynamic basic-block trace for perfect-prediction configurations (and
// is ignored otherwise); hints supplies static branch prediction hints
// keyed by original block IDs, used to seed the 2-bit predictor.
func Run(img *loader.Image, in0, in1 []byte, trace []ir.BlockID, hints map[ir.BlockID]bool, lim Limits) (*RunResult, error) {
	return RunContext(context.Background(), img, in0, in1, trace, hints, lim)
}

// RunContext is Run with cancellation: the simulation aborts with a
// *CanceledError (wrapping ctx.Err()) soon after the context is canceled or
// its deadline passes. The check is amortized over cycles, so cancellation
// latency is a few thousand simulated cycles, not wall-clock immediate.
func RunContext(ctx context.Context, img *loader.Image, in0, in1 []byte, trace []ir.BlockID, hints map[ir.BlockID]bool, lim Limits) (*RunResult, error) {
	if img.Cfg.Branch == machine.Perfect && trace == nil {
		return nil, fmt.Errorf("core: perfect prediction requires a recorded trace")
	}
	if img.Cfg.Branch == machine.FillUnit && (lim.CheckpointEvery > 0 || lim.Resume != nil) {
		return nil, &CheckpointUnsupportedError{Reason: "fill-unit images mutate at run time"}
	}
	if img.Cfg.Disc == machine.Static {
		e := newStaticEngine(img, in0, in1, lim)
		e.ctx = ctx
		if lim.Resume != nil {
			if err := e.restore(lim.Resume); err != nil {
				return nil, err
			}
		}
		return e.run()
	}
	e := newDynamicEngine(img, in0, in1, trace, lim)
	e.ctx = ctx
	if hints != nil {
		e.SetHints(hints)
	}
	if lim.Resume != nil {
		if err := e.restore(lim.Resume); err != nil {
			return nil, err
		}
	}
	return e.run()
}

// ctxCheckPeriod is how many cycles pass between context-cancellation
// checks; a power of two so the test is a mask.
const ctxCheckPeriod = 4096

// blockSizeHist histograms an engine's retired block sizes by node count.
// The engine folds it into stats.Run.BlockSizes (a map) at run end and
// before a snapshot, keeping the map update off the retire path.
type blockSizeHist []int64

func (h *blockSizeHist) add(size int) {
	for size >= len(*h) {
		*h = append(*h, 0)
	}
	(*h)[size]++
}

// fold moves the counts into the run statistics.
func (h blockSizeHist) fold(st *stats.Run) {
	for size, n := range h {
		if n != 0 {
			st.BlockSizes[size] += n
			h[size] = 0
		}
	}
}

// env is the architectural state shared by both engines: memory, the input
// streams, and collected output. Its memory is an ir.Memory, the type the
// functional interpreter uses, address clamp included, so that runs are
// bit-for-bit comparable.
type env struct {
	prog *ir.Program
	mem  *ir.Memory

	in    [2][]byte
	inPos [2]int
	out   []byte
}

func newEnv(p *ir.Program, in0, in1 []byte) *env {
	return &env{prog: p, mem: ir.NewMemory(p), in: [2][]byte{in0, in1}}
}

func (e *env) syscall(no int64, a, b int32) int32 {
	switch no {
	case ir.SysGetc:
		s := int(a) & 1
		if e.inPos[s] >= len(e.in[s]) {
			return -1
		}
		c := e.in[s][e.inPos[s]]
		e.inPos[s]++
		return int32(c)
	case ir.SysPutc:
		e.out = append(e.out, byte(a))
		return 0
	}
	return -1
}

// sizeOf returns the access width of a memory node.
func sizeOf(op ir.Op) int64 {
	if op == ir.LdB || op == ir.StB {
		return 1
	}
	return 4
}
