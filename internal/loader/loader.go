// Package loader is the translating loader (the paper's tld): it takes a
// node-IR program plus a machine configuration and produces the executable
// image the run-time simulator executes, in two steps. Translation
// (Translate) depends only on the block mode: for enlarged-block
// configurations it materializes the chains planned by the enlargement
// file — internal conditional branches become assert/fault nodes,
// fault-recovery prefix blocks are generated, and every enlarged block is
// re-optimized as a unit. Static scheduling (Pack) depends on the machine:
// for statically scheduled machines it packs every block of a translation
// into multinodewords. Load composes the two; callers that simulate many
// machines on one program share translations and schedules instead.
package loader

import (
	"errors"
	"fmt"

	"fgpsim/internal/enlarge"
	"fgpsim/internal/ir"
	"fgpsim/internal/machine"
	"fgpsim/internal/opt"
)

// BadEnlargementError reports a structurally invalid enlargement chain —
// a corrupt or stale enlargement file. Callers that can run without
// enlargement should degrade to single-basic-block simulation on it.
type BadEnlargementError struct {
	Chain  int // index within the file; -1 for run-time (fill-unit) chains
	Reason string
}

func (e *BadEnlargementError) Error() string {
	if e.Chain >= 0 {
		return fmt.Sprintf("loader: bad enlargement chain %d: %s", e.Chain, e.Reason)
	}
	return "loader: bad enlargement chain: " + e.Reason
}

// Image is a loaded executable: the (possibly enlarged) program plus the
// per-block metadata the engines need. Images are read-only: images of one
// translation share its program and maps, so a caller that needs to
// mutate one clones it first. Only a FillUnit image is private to its
// run, which enlarges it in place (AddChain).
type Image struct {
	Prog *ir.Program
	Cfg  machine.Config

	// Schedule is the packed static multinodeword schedule (static
	// discipline only); read it through Words.
	Schedule *Schedule

	// Chains maps each materialized enlarged block (primary or fault
	// prefix) to the sequence of original blocks it covers. Original
	// blocks are absent (their coverage is themselves).
	Chains map[ir.BlockID][]ir.BlockID

	// TermOrig maps a block to the original block whose terminator it
	// ends with (identity for original blocks); static branch hints are
	// keyed by original blocks and looked up through it.
	TermOrig map[ir.BlockID]ir.BlockID

	// EntryMap maps an original entry block to the enlarged block that
	// replaced it. For the compiler modes (EnlargedBB, Perfect) control
	// transfers have already been redirected and the map is diagnostic;
	// for the FillUnit mode the engine consults it at fetch time, since
	// the program's own targets keep pointing at original blocks.
	EntryMap map[ir.BlockID]ir.BlockID

	// Degraded records that the enlargement file supplied at load time was
	// structurally corrupt and the image fell back to its single-basic-block
	// equivalent (LoadDegrading). It travels with the serialized image so
	// cmd/sim can surface the degradation in the run's statistics.
	Degraded bool

	// liveness caches per-function liveness of the original program, used
	// by run-time (fill unit) materialization. Lazily built by AddChain.
	liveness map[ir.FuncID]*opt.LiveInfo
}

// ChainOf returns the original blocks covered by a block.
func (im *Image) ChainOf(id ir.BlockID) []ir.BlockID {
	if c, ok := im.Chains[id]; ok {
		return c
	}
	return []ir.BlockID{id}
}

// TermOrigOf returns the original block owning a block's terminator.
func (im *Image) TermOrigOf(id ir.BlockID) ir.BlockID {
	if o, ok := im.TermOrig[id]; ok {
		return o
	}
	return id
}

// Load builds the executable image for one machine configuration: the
// translation for its block mode, bound to cfg with the static schedule
// packed for it. ef is required for (and only used by) the enlarged and
// perfect branch modes. A SingleBB image shares base.
func Load(base *ir.Program, cfg machine.Config, ef *enlarge.File) (*Image, error) {
	tr, err := Translate(base, cfg.Branch, ef)
	if err != nil {
		return nil, err
	}
	return tr.Bind(cfg, Pack(tr.Prog, cfg))
}

// Translate is the loader's first step, the one that depends only on the
// block mode. SingleBB returns base itself, shared and untouched;
// EnlargedBB and Perfect clone it and materialize ef's chains; FillUnit
// gets a private clone, which the fill unit enlarges at run time. The
// result carries no Cfg and no schedule: Bind makes a machine's image of
// it.
func Translate(base *ir.Program, mode machine.BranchMode, ef *enlarge.File) (*Image, error) {
	img := &Image{
		Prog:     base,
		Chains:   make(map[ir.BlockID][]ir.BlockID),
		TermOrig: make(map[ir.BlockID]ir.BlockID),
		EntryMap: make(map[ir.BlockID]ir.BlockID),
	}
	switch mode {
	case machine.EnlargedBB, machine.Perfect:
		if ef == nil {
			return nil, fmt.Errorf("loader: %s branch mode requires an enlargement file", mode)
		}
		img.Prog = Clone(base)
		if err := img.materialize(ef); err != nil {
			return nil, err
		}
	case machine.FillUnit:
		img.Prog = Clone(base)
	}
	if err := img.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("loader: invalid image: %w", err)
	}
	return img, nil
}

// Bind returns the image of translation tr on machine cfg: a shallow copy
// that carries cfg and s, the schedule Pack made from tr.Prog for cfg (nil
// for a dynamically scheduled machine).
func (tr *Image) Bind(cfg machine.Config, s *Schedule) (*Image, error) {
	if err := checkMachine(cfg, s); err != nil {
		return nil, err
	}
	img := *tr
	img.Cfg = cfg
	img.Schedule = s
	return &img, nil
}

// checkMachine reports a machine an image cannot run on: a fill unit on a
// statically scheduled machine, or a schedule s that the discipline does
// not match.
func checkMachine(cfg machine.Config, s *Schedule) error {
	static := cfg.Disc == machine.Static
	if static && cfg.Branch == machine.FillUnit {
		return fmt.Errorf("loader: the fill unit requires a dynamically scheduled machine")
	}
	if static != (s != nil) {
		return fmt.Errorf("loader: %s: a statically scheduled machine needs a schedule, a dynamic one none", cfg)
	}
	return nil
}

// LoadDegrading is Load with the corrupt-enlargement degrade policy: a
// *BadEnlargementError does not fail the load, it falls back to the
// configuration's single-basic-block equivalent — EnlargedBB becomes
// SingleBB; Perfect keeps its oracle predictor but drops the enlargement
// — and marks the image Degraded. Both run the single-block translation,
// since an empty enlargement file would materialize and redirect nothing.
// The program still runs and produces identical output; only the timing
// loses the enlargement benefit. Any other load error is returned as-is.
func LoadDegrading(base *ir.Program, cfg machine.Config, ef *enlarge.File) (*Image, error) {
	img, err := Load(base, cfg, ef)
	if err == nil {
		return img, nil
	}
	var be *BadEnlargementError
	if !errors.As(err, &be) {
		return nil, err
	}
	if cfg.Branch == machine.EnlargedBB {
		cfg.Branch = machine.SingleBB
	}
	tr, err := Translate(base, machine.SingleBB, nil)
	if err != nil {
		return nil, err
	}
	if img, err = tr.Bind(cfg, Pack(tr.Prog, cfg)); err != nil {
		return nil, err
	}
	img.Degraded = true
	return img, nil
}

// Clone copies a program's functions and block structs so that a
// translation's rewrites never touch the shared base. Block bodies stay
// shared with the base, clipped to their length so that an append to one
// copies it first: materialization builds every new body afresh and
// rewrites only terminators, fall-throughs and function entries of the
// original blocks.
func Clone(p *ir.Program) *ir.Program {
	np := &ir.Program{
		Entry:    p.Entry,
		Data:     p.Data, // read-only after compile
		DataBase: p.DataBase,
		MemSize:  p.MemSize,
	}
	np.Funcs = make([]*ir.Func, len(p.Funcs))
	for i, f := range p.Funcs {
		nf := *f
		nf.Blocks = append([]ir.BlockID(nil), f.Blocks...)
		np.Funcs[i] = &nf
	}
	np.Blocks = make([]*ir.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		nb := *b
		nb.Body = b.Body[:len(b.Body):len(b.Body)]
		np.Blocks[i] = &nb
	}
	return np
}

// liveness computes per-function liveness of an original program;
// live-ins are keyed by original block IDs, which is what terminators
// reference at merged-block optimization time.
func liveness(p *ir.Program) map[ir.FuncID]*opt.LiveInfo {
	live := make(map[ir.FuncID]*opt.LiveInfo, len(p.Funcs))
	for _, f := range p.Funcs {
		live[f.ID] = opt.Liveness(p, f, ir.NumRegs)
	}
	return live
}

// AddChain materializes one enlargement chain at run time (the fill-unit
// path) and returns the enlarged entry block. The program's control
// transfers are NOT redirected: the caller maps fetches of c.Entry through
// EntryMap. Liveness is computed against the original blocks, which stay
// immutable, so adding chains mid-simulation is safe.
func (img *Image) AddChain(c enlarge.Chain) (ir.BlockID, error) {
	if img.liveness == nil {
		img.liveness = liveness(img.Prog)
	}
	if _, dup := img.EntryMap[c.Entry]; dup {
		return 0, fmt.Errorf("loader: entry %d already enlarged", c.Entry)
	}
	if err := img.materializeChain(c, img.liveness); err != nil {
		return 0, err
	}
	return img.EntryMap[c.Entry], nil
}

// materialize realizes every chain of the enlargement file as enlarged
// blocks inside img.Prog and redirects control transfers to them.
func (img *Image) materialize(ef *enlarge.File) error {
	p := img.Prog
	live := liveness(p)
	for ci, chain := range ef.Chains {
		if err := img.materializeChain(chain, live); err != nil {
			var be *BadEnlargementError
			if errors.As(err, &be) {
				be.Chain = ci
			}
			return err
		}
	}

	// Redirect every control transfer aimed at an enlarged entry.
	redirect := func(id *ir.BlockID) {
		if n, ok := img.EntryMap[*id]; ok {
			*id = n
		}
	}
	for _, b := range p.Blocks {
		switch b.Term.Op {
		case ir.Br:
			redirect(&b.Term.Target)
			redirect(&b.Fall)
		case ir.Jmp:
			redirect(&b.Term.Target)
		case ir.Call:
			redirect(&b.Fall)
		}
		// Assert fault targets point at prefix blocks, never entries, so
		// they are deliberately not redirected.
	}
	for _, f := range p.Funcs {
		redirect(&f.Entry)
	}
	return nil
}

// onChain and offChain return the followed and abandoned successors of a
// conditional chain step.
func onChainTarget(b *ir.Block, takenToNext bool) ir.BlockID {
	if takenToNext {
		return b.Term.Target
	}
	return b.Fall
}

func offChainTarget(b *ir.Block, takenToNext bool) ir.BlockID {
	if takenToNext {
		return b.Fall
	}
	return b.Term.Target
}

// validBlock reports whether id names a block of the program.
func validBlock(p *ir.Program, id ir.BlockID) bool {
	return id >= 0 && int(id) < len(p.Blocks) && p.Blocks[id] != nil
}

func (img *Image) materializeChain(c enlarge.Chain, liveness map[ir.FuncID]*opt.LiveInfo) error {
	p := img.Prog
	if len(c.Steps) < 2 {
		return nil
	}
	// Sanity-check the chain against the program. An enlargement file
	// arrives from disk, so nothing about it can be trusted: every block ID
	// is bounds-checked before use and every step must follow an arc of its
	// predecessor. Violations are *BadEnlargementError so callers can
	// degrade to single-block simulation instead of crashing.
	if !validBlock(p, c.Entry) {
		return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("entry block %d does not exist", c.Entry)}
	}
	if c.Steps[0].Block != c.Entry {
		return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("entry %d disagrees with first step %d", c.Entry, c.Steps[0].Block)}
	}
	entryBlk := p.Block(c.Entry)
	fn := entryBlk.Fn
	m := len(c.Steps)

	for i, s := range c.Steps {
		if !validBlock(p, s.Block) {
			return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("step %d names nonexistent block %d", i, s.Block)}
		}
		b := p.Block(s.Block)
		if b.Fn != fn {
			return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("chain crosses functions at step %d", i)}
		}
		if i == m-1 {
			break
		}
		switch b.Term.Op {
		case ir.Br, ir.Jmp:
			if onChainTarget(b, s.TakenToNext) != c.Steps[i+1].Block && b.Term.Op == ir.Br {
				return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("step %d does not follow an arc of block %d", i, s.Block)}
			}
			if b.Term.Op == ir.Jmp && b.Term.Target != c.Steps[i+1].Block {
				return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("step %d does not follow the jump of block %d", i, s.Block)}
			}
		default:
			return &BadEnlargementError{Chain: -1, Reason: fmt.Sprintf("step %d of block %d ends with %s", i, s.Block, b.Term.Op)}
		}
	}

	// Fault-recovery prefix blocks, one per conditional non-final step:
	// the prefix re-executes steps 0..k and jumps off-chain. Under
	// oldest-first fault processing the re-executed conditionals are
	// guaranteed to follow the chain, so their asserts are eliminated
	// (the paper's "no need to make the test that is guaranteed to
	// succeed").
	faultTo := make(map[int]ir.BlockID) // step index -> prefix block
	liv := liveness[fn]
	for k := 0; k < m-1; k++ {
		stepBlk := p.Block(c.Steps[k].Block)
		if stepBlk.Term.Op != ir.Br {
			continue
		}
		off := offChainTarget(stepBlk, c.Steps[k].TakenToNext)
		var body []ir.Node
		for i := 0; i <= k; i++ {
			body = append(body, p.Block(c.Steps[i].Block).Body...)
		}
		fb := &ir.Block{
			Body: body,
			Term: ir.Node{Op: ir.Jmp, Target: off},
			Fall: ir.NoBlock,
		}
		p.AddBlock(fn, fb)
		fb.Orig = c.Entry
		reoptimize(fb, liv.In[off])
		img.Chains[fb.ID] = chainIDs(c, k+1)
		img.TermOrig[fb.ID] = c.Steps[k].Block
		faultTo[k] = fb.ID
	}

	// The primary enlarged block: all step bodies with internal branches
	// converted to assert/fault nodes.
	var body []ir.Node
	for i := 0; i < m; i++ {
		stepBlk := p.Block(c.Steps[i].Block)
		body = append(body, stepBlk.Body...)
		if i == m-1 {
			break
		}
		if stepBlk.Term.Op == ir.Br {
			body = append(body, ir.Node{
				Op:     ir.Assert,
				A:      stepBlk.Term.A,
				B:      ir.NoReg,
				Expect: c.Steps[i].TakenToNext,
				Target: faultTo[i],
			})
		}
		// Jmp terminators vanish: merging removes the control transfer.
	}
	last := p.Block(c.Steps[m-1].Block)
	pb := &ir.Block{
		Body: body,
		Term: last.Term,
		Fall: last.Fall,
	}
	p.AddBlock(fn, pb)
	pb.Orig = c.Entry

	reoptimize(pb, mergedLiveOut(p, last, liv))
	img.Chains[pb.ID] = chainIDs(c, m)
	img.TermOrig[pb.ID] = c.Steps[m-1].Block
	img.EntryMap[c.Entry] = pb.ID
	return nil
}

func chainIDs(c enlarge.Chain, n int) []ir.BlockID {
	ids := make([]ir.BlockID, n)
	for i := 0; i < n; i++ {
		ids[i] = c.Steps[i].Block
	}
	return ids
}

// mergedLiveOut computes the live-out set of the final chain step from the
// original program's liveness.
func mergedLiveOut(p *ir.Program, last *ir.Block, liv *opt.LiveInfo) opt.Bits {
	if out, ok := liv.Out[last.ID]; ok {
		return out
	}
	// The final step's block was not in the liveness map (should not
	// happen); fall back to "everything live".
	all := opt.NewBits(ir.NumRegs)
	for r := 0; r < ir.NumRegs; r++ {
		all.Set(r)
	}
	return all
}

// reoptimize runs the optimizer over a merged node sequence: value
// numbering (constant folding, copy propagation, CSE, load forwarding)
// followed by dead code elimination against the sequence's live-out set —
// the paper's "re-optimized as a unit".
func reoptimize(b *ir.Block, liveOut opt.Bits) {
	if liveOut == nil {
		liveOut = allLive()
	}
	opt.ValueNumberSeq(b.Body, &b.Term, nil)
	b.Body = opt.DeadCode(b.Body, &b.Term, liveOut, ir.NumRegs)
}

func allLive() opt.Bits {
	all := opt.NewBits(ir.NumRegs)
	for r := 0; r < ir.NumRegs; r++ {
		all.Set(r)
	}
	return all
}
