package difftest

import (
	"bytes"
	"fmt"

	"fgpsim/internal/branch"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
	"fgpsim/internal/stats"
)

// Variant is one point of the oracle matrix: a machine configuration plus
// whether the profile-derived static hints seed its branch predictor (the
// paper's static-hint scheme is an input to the 2-bit counters, not a
// Config field, so it is a matrix axis of its own).
type Variant struct {
	Cfg    machine.Config
	Hinted bool
}

func (v Variant) String() string {
	if v.Hinted {
		return v.Cfg.String() + "+hints"
	}
	return v.Cfg.String()
}

// Case is one program prepared for the oracle, following the paper's
// two-input methodology: profile (and build enlargement chains) on
// ProfileIn/ProfileIn1, measure on In/In1 (the second stream serves
// programs that read both, like the dictionary examples; leave it nil
// otherwise).
type Case struct {
	Name string
	Src  string // MiniC source; "" when Prog was built directly
	Prog *ir.Program

	ProfileIn  []byte
	ProfileIn1 []byte
	In         []byte
	In1        []byte

	// Derived during prepare.
	Profile *interp.Profile
	EF      *enlarge.File
	Hints   map[ir.BlockID]bool
	Ref     *interp.Result
}

// maxNodes bounds functional runs; maxCycles bounds timed runs. Generated
// programs are far below these — hitting a bound means a runaway program,
// which the oracle reports as an error rather than a divergence.
const (
	maxNodes  = 1 << 24
	maxCycles = 1 << 28
)

// CompileCase compiles a MiniC program and runs the two functional passes
// (profile on profileIn, reference+trace on in) that the oracle needs.
func CompileCase(name, src string, profileIn, in []byte) (*Case, error) {
	prog, err := minic.Compile(name, src, minic.Options{Optimize: true})
	if err != nil {
		return nil, fmt.Errorf("difftest: compile %s: %w", name, err)
	}
	c := &Case{Name: name, Src: src, Prog: prog, ProfileIn: profileIn, In: in}
	if err := c.Prepare(); err != nil {
		return nil, err
	}
	return c, nil
}

// PrepareCase wraps an already-built program (assembled or hand-constructed)
// for the oracle.
func PrepareCase(name string, prog *ir.Program, profileIn, in []byte) (*Case, error) {
	c := &Case{Name: name, Prog: prog, ProfileIn: profileIn, In: in}
	if err := c.Prepare(); err != nil {
		return nil, err
	}
	return c, nil
}

// Prepare runs the two functional passes on a caller-populated Case (for
// cases that need the second input stream, build the struct and call this
// directly; CompileCase and PrepareCase cover the stream-0-only shape).
func (c *Case) Prepare() error {
	prof, ref, err := interp.Passes(c.Prog, c.ProfileIn, c.ProfileIn1, c.In, c.In1, maxNodes)
	if err != nil {
		return fmt.Errorf("difftest: %s: %w", c.Name, err)
	}
	c.Profile = prof
	c.EF = enlarge.Build(c.Prog, prof, enlarge.DefaultOptions())
	c.Hints = branch.HintsFromProfile(prof.Taken, prof.NotTaken)
	c.Ref = ref
	return nil
}

// Divergence is one oracle violation: a timed run that broke the contract
// with the reference interpreter or an invariant between configurations.
type Divergence struct {
	Variant Variant
	Kind    string // "output", "retired-nodes", "retired-blocks", "stats", "arc-profile", "metamorphic", "pipelog"
	Msg     string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s [%s]: %s", d.Variant, d.Kind, d.Msg)
}

// VariantRun pairs a matrix point with its measured statistics.
type VariantRun struct {
	Variant Variant
	Stats   *stats.Run
}

// Report is the outcome of running one case through the oracle matrix.
type Report struct {
	Case        *Case
	Runs        []VariantRun
	Divergences []Divergence
}

// Failed reports whether any divergence was found.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

func (r *Report) add(v Variant, kind, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{Variant: v, Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// Matrix returns the full oracle matrix: dynamic disciplines crossed with
// {bare 2-bit, statically hinted 2-bit, gshare} predictors and
// {single, enlarged} block modes, perfect prediction for the two
// speculative window sizes the paper studies, the static machine in both
// block modes, and the fill unit. Issue models and memory configurations
// are spread across the points so cache and multi-issue paths stay covered
// without multiplying the matrix out.
func Matrix() []Variant {
	cfg := func(d machine.Discipline, issue int, mem byte, bm machine.BranchMode, pk machine.PredictorKind) machine.Config {
		im, _ := machine.IssueModelByID(issue)
		mc, _ := machine.MemConfigByID(mem)
		return machine.Config{Disc: d, Issue: im, Mem: mc, Branch: bm, Predictor: pk}
	}
	var vs []Variant
	add := func(c machine.Config, hinted bool) { vs = append(vs, Variant{c, hinted}) }

	// Static machine, both block modes.
	add(cfg(machine.Static, 4, 'A', machine.SingleBB, machine.TwoBit), false)
	add(cfg(machine.Static, 8, 'D', machine.EnlargedBB, machine.TwoBit), false)

	// Dynamic × predictor × block mode.
	for _, d := range []machine.Discipline{machine.Dyn4, machine.Dyn256} {
		for _, bm := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
			add(cfg(d, 8, 'A', bm, machine.TwoBit), false)
			add(cfg(d, 5, 'D', bm, machine.TwoBit), true) // static-hint variant
			add(cfg(d, 8, 'G', bm, machine.GSharePredictor), false)
		}
		// Perfect prediction (always an enlarged-block image).
		add(cfg(d, 8, 'A', machine.Perfect, machine.TwoBit), false)
	}

	// Small window and the fill unit.
	add(cfg(machine.Dyn1, 2, 'C', machine.EnlargedBB, machine.TwoBit), false)
	add(cfg(machine.Dyn256, 8, 'D', machine.FillUnit, machine.TwoBit), false)
	return vs
}

// QuickMatrix is the reduced matrix the fuzz targets use: one
// representative of every engine family (static, dynamic single, dynamic
// enlarged, perfect, fill unit, gshare) so a fuzz iteration stays cheap.
func QuickMatrix() []Variant {
	cfg := func(d machine.Discipline, issue int, mem byte, bm machine.BranchMode, pk machine.PredictorKind) machine.Config {
		im, _ := machine.IssueModelByID(issue)
		mc, _ := machine.MemConfigByID(mem)
		return machine.Config{Disc: d, Issue: im, Mem: mc, Branch: bm, Predictor: pk}
	}
	return []Variant{
		{cfg(machine.Static, 8, 'A', machine.SingleBB, machine.TwoBit), false},
		{cfg(machine.Dyn4, 8, 'D', machine.EnlargedBB, machine.TwoBit), true},
		{cfg(machine.Dyn256, 8, 'A', machine.SingleBB, machine.GSharePredictor), false},
		{cfg(machine.Dyn256, 8, 'A', machine.Perfect, machine.TwoBit), false},
		{cfg(machine.Dyn256, 8, 'D', machine.FillUnit, machine.TwoBit), false},
	}
}

// Oracle runs the case through every matrix variant and cross-checks:
//
//   - architectural output is byte-identical to the interpreter's;
//   - retired node and block counts are architectural: single-block runs
//     match the interpreter exactly, and all enlarged-image runs (enlarged
//     and perfect modes share the loader's re-optimized code) agree with
//     each other regardless of predictor, window, issue width, or memory;
//   - per-run statistics are internally consistent (CheckStats);
//   - the measurement input's arc profile is consistent with itself and
//     with the retired-branch counts of the timed runs (checkArcProfile).
//
// Load or run errors are returned as errors (they are infrastructure
// failures, not divergences); contract violations land in the report.
func (c *Case) Oracle(vs []Variant) (*Report, error) {
	rep := &Report{Case: c}
	type enlargedRef struct {
		v      Variant
		nodes  int64
		blocks int64
	}
	var eref *enlargedRef
	for _, v := range vs {
		if !v.Cfg.Disc.Dynamic() && (v.Cfg.Branch == machine.Perfect || v.Cfg.Branch == machine.FillUnit) {
			return nil, fmt.Errorf("difftest: %s: %s requires a dynamic discipline", c.Name, v)
		}
		img, err := loader.Load(c.Prog, v.Cfg, c.EF)
		if err != nil {
			return nil, fmt.Errorf("difftest: %s: load %s: %w", c.Name, v, err)
		}
		var hints map[ir.BlockID]bool
		if v.Hinted {
			hints = c.Hints
		}
		res, err := core.Run(img, c.In, c.In1, c.Ref.Trace, hints, core.Limits{MaxCycles: maxCycles})
		if err != nil {
			return nil, fmt.Errorf("difftest: %s: run %s: %w", c.Name, v, err)
		}
		rep.Runs = append(rep.Runs, VariantRun{Variant: v, Stats: res.Stats})

		if !bytes.Equal(res.Output, c.Ref.Output) {
			rep.add(v, "output", "got %q, want %q", res.Output, c.Ref.Output)
		}
		switch v.Cfg.Branch {
		case machine.SingleBB:
			if res.Stats.RetiredNodes != c.Ref.RetiredNodes {
				rep.add(v, "retired-nodes", "retired %d nodes, interp retired %d",
					res.Stats.RetiredNodes, c.Ref.RetiredNodes)
			}
			if res.Stats.RetiredBlocks != c.Ref.RetiredBlocks {
				rep.add(v, "retired-blocks", "retired %d blocks, interp retired %d",
					res.Stats.RetiredBlocks, c.Ref.RetiredBlocks)
			}
		case machine.EnlargedBB, machine.Perfect:
			if eref == nil {
				eref = &enlargedRef{v, res.Stats.RetiredNodes, res.Stats.RetiredBlocks}
			} else {
				if res.Stats.RetiredNodes != eref.nodes {
					rep.add(v, "retired-nodes", "retired %d nodes, %s retired %d",
						res.Stats.RetiredNodes, eref.v, eref.nodes)
				}
				if res.Stats.RetiredBlocks != eref.blocks {
					rep.add(v, "retired-blocks", "retired %d blocks, %s retired %d",
						res.Stats.RetiredBlocks, eref.v, eref.blocks)
				}
			}
		}
		for _, msg := range CheckStats(res.Stats) {
			rep.add(v, "stats", "%s", msg)
		}
	}
	c.checkArcProfile(rep)
	c.checkMetamorphic(rep)
	return rep, nil
}

// CheckStats returns the accounting-invariant violations of one run's
// statistics (nil when consistent): executed work covers retired plus
// discarded work, branch accounting stays within bounds, derived rates stay
// in [0,1], and the block-size histogram's mass equals the retired blocks.
func CheckStats(s *stats.Run) []string {
	var msgs []string
	addf := func(format string, args ...any) { msgs = append(msgs, fmt.Sprintf(format, args...)) }
	if s.ExecutedNodes < s.RetiredNodes {
		addf("executed %d < retired %d", s.ExecutedNodes, s.RetiredNodes)
	}
	if s.ExecutedNodes < s.RetiredNodes+s.DiscardedNodes {
		addf("executed %d < retired %d + discarded %d", s.ExecutedNodes, s.RetiredNodes, s.DiscardedNodes)
	}
	if s.BranchesCorrect > s.Branches {
		addf("correct branches %d > branches %d", s.BranchesCorrect, s.Branches)
	}
	if acc := s.PredictionAccuracy(); acc < 0 || acc > 1 {
		addf("prediction accuracy %v out of [0,1]", acc)
	}
	if red := s.Redundancy(); red < 0 || red > 1 {
		addf("redundancy %v out of [0,1]", red)
	}
	if s.RepairedFaults > s.InjectedFaults {
		addf("repaired faults %d > injected faults %d", s.RepairedFaults, s.InjectedFaults)
	}
	var blocks int64
	for _, n := range s.BlockSizes {
		blocks += n
	}
	if blocks != s.RetiredBlocks {
		addf("block-size histogram mass %d != retired blocks %d", blocks, s.RetiredBlocks)
	}
	return msgs
}

// checkArcProfile re-profiles the program on the measurement input and
// checks the profile against itself and against the reference run: block
// execution counts sum to the retired block count, every branch outcome is
// attributed to an executed block, and each conditional block's outgoing
// arcs sum to its taken+not-taken outcomes.
func (c *Case) checkArcProfile(rep *Report) {
	prof := interp.NewProfile()
	res, err := interp.Run(c.Prog, c.In, c.In1, interp.Options{Profile: prof, MaxNodes: maxNodes})
	if err != nil {
		rep.add(Variant{}, "arc-profile", "re-profile run failed: %v", err)
		return
	}
	if !bytes.Equal(res.Output, c.Ref.Output) {
		rep.add(Variant{}, "arc-profile", "interpreter nondeterministic: re-run output differs")
	}
	var blockSum int64
	for _, n := range prof.Blocks {
		blockSum += n
	}
	if blockSum != res.RetiredBlocks {
		rep.add(Variant{}, "arc-profile", "block counts sum to %d, run retired %d blocks",
			blockSum, res.RetiredBlocks)
	}
	for b, taken := range prof.Taken {
		if execs := prof.Blocks[b]; taken+prof.NotTaken[b] > execs {
			rep.add(Variant{}, "arc-profile", "block b%d: %d branch outcomes > %d executions",
				b, taken+prof.NotTaken[b], execs)
		}
	}
	outgoing := make(map[ir.BlockID]int64)
	for a, n := range prof.Arcs {
		outgoing[a.From] += n
		if prof.Blocks[a.From] == 0 {
			rep.add(Variant{}, "arc-profile", "arc b%d->b%d from a block never counted as executed", a.From, a.To)
		}
	}
	for b, n := range outgoing {
		if want := prof.Taken[b] + prof.NotTaken[b]; n != want {
			rep.add(Variant{}, "arc-profile", "block b%d: outgoing arcs %d != taken+nottaken %d", b, n, want)
		}
	}
}
