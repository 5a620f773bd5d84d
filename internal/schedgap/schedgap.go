// Package schedgap measures the list scheduler's optimality gap across a
// corpus: every block of every statically scheduled image is packed by the
// greedy list scheduler and by the exact branch-and-bound scheduler
// (internal/sched/exact), and the planned-cycle difference is aggregated
// per sweep point (issue model x memory configuration x enlargement
// level). The result is both a quality report (what fraction of blocks the
// list scheduler packs optimally, and how much it loses where it does not)
// and a correctness gate: a list schedule that is illegal or shorter than
// the proven optimum is a Violation, and CI fails on any.
//
// The corpus is the paper's five MiniC benchmarks plus a deterministic set
// of generated programs (the difftest generator), so the gap is measured
// on real control-flow shapes and on adversarial random ones. Everything —
// corpus, budgets, sweep points — is deterministic, so the checked-in
// results/SCHEDGAP.json regenerates bit-identically and regressions are a
// plain diff.
package schedgap

import (
	"fmt"
	"sort"

	"fgpsim/internal/bench"
	"fgpsim/internal/difftest"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/sched"
	"fgpsim/internal/sched/exact"
)

// Config fixes the sweep: which issue models and memory configurations,
// which enlargement levels (MaxChainLen; 0 means single basic blocks), how
// many generated programs, and the per-block exact-search budget. The
// checked-in baseline and the CI smoke must use the same Config for their
// numbers to be comparable, so the Config travels inside the Report.
type Config struct {
	Issues    []int  `json:"issues"`
	Mems      []byte `json:"mems"`
	Chains    []int  `json:"chains"` // enlargement levels (MaxChainLen; 0 = single)
	GenCount  int    `json:"gen_count"`
	GenSeed   int64  `json:"gen_seed"`
	MaxNodes  int    `json:"max_nodes"`
	Budget    int64  `json:"budget"`     // exact-search expansions per block
	SmallNode int    `json:"small_node"` // "small block" threshold for the proved-fraction criterion
}

// DefaultConfig is the configuration behind results/SCHEDGAP.json.
func DefaultConfig() Config {
	return Config{
		Issues:    []int{1, 2, 4, 8},
		Mems:      []byte{'A', 'D'},
		Chains:    []int{0, 8},
		GenCount:  24,
		GenSeed:   5000,
		MaxNodes:  30,
		Budget:    200000,
		SmallNode: 20,
	}
}

// Summary aggregates the gap over a set of measured blocks. Overheads are
// percent planned-cycle overhead of the list schedule relative to the best
// exact schedule (0 for an optimally packed block); for BoundOnly blocks
// the reference is the best schedule found, so the reported overhead is a
// lower estimate of the true gap there.
type Summary struct {
	Blocks    int `json:"blocks"`
	Proved    int `json:"proved"`     // exact search proved its optimum
	Optimal   int `json:"optimal"`    // proved and the list schedule matches it
	BoundOnly int `json:"bound_only"` // budget expired without a proof
	TooLarge  int `json:"too_large"`  // block above MaxNodes, not searched

	Small       int `json:"small"`        // blocks at or under SmallNode nodes
	SmallProved int `json:"small_proved"` // ... of which proved

	CyclesList  int64 `json:"cycles_list"`  // summed planned cycles, list
	CyclesExact int64 `json:"cycles_exact"` // summed planned cycles, exact

	P50OverheadPct  float64 `json:"p50_overhead_pct"`
	P99OverheadPct  float64 `json:"p99_overhead_pct"`
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
	MaxOverheadPct  float64 `json:"max_overhead_pct"`
}

// OptimalFrac is the fraction of measured blocks the list scheduler packed
// provably optimally.
func (s Summary) OptimalFrac() float64 {
	if s.Blocks == 0 {
		return 1
	}
	return float64(s.Optimal) / float64(s.Blocks)
}

// ProvedFrac is the fraction of measured blocks with an optimality proof.
func (s Summary) ProvedFrac() float64 {
	if s.Blocks == 0 {
		return 1
	}
	return float64(s.Proved) / float64(s.Blocks)
}

// SmallProvedFrac is the proved fraction among small blocks — the
// acceptance criterion's metric.
func (s Summary) SmallProvedFrac() float64 {
	if s.Small == 0 {
		return 1
	}
	return float64(s.SmallProved) / float64(s.Small)
}

// Row is one sweep point.
type Row struct {
	Issue  int    `json:"issue"`
	Mem    string `json:"mem"`
	HitLat int    `json:"hit_lat"`
	Chain  int    `json:"chain"`
	Summary
}

// CorpusReport aggregates one corpus (minic or generated).
type CorpusReport struct {
	Name  string  `json:"name"`
	Units int     `json:"units"` // programs measured
	Rows  []Row   `json:"rows"`
	Total Summary `json:"total"`
}

// Report is the whole sweep — the schema of results/SCHEDGAP.json.
type Report struct {
	Config  Config         `json:"config"`
	Corpora []CorpusReport `json:"corpora"`
}

// Corpus finds a corpus report by name, or nil.
func (r *Report) Corpus(name string) *CorpusReport {
	for i := range r.Corpora {
		if r.Corpora[i].Name == name {
			return &r.Corpora[i]
		}
	}
	return nil
}

// Violation is a correctness failure found during the sweep: an illegal
// schedule or a list schedule beating the exact one. Any violation means a
// scheduler bug, never a measurement artifact.
type Violation struct {
	Unit  string
	Row   string
	Block ir.BlockID
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] b%d: %s", v.Unit, v.Row, v.Block, v.Msg)
}

// Unit is one program of the corpus, with the profile that drives its
// enlargement levels.
type Unit struct {
	Name    string
	Prog    *ir.Program
	Profile *interp.Profile
}

const maxProfileNodes = 1 << 24

// MiniCCorpus prepares the five benchmark programs, profiled on input set
// 1 (the paper's methodology: enlargement is planned on the profiling
// input).
func MiniCCorpus() ([]*Unit, error) {
	var units []*Unit
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			return nil, fmt.Errorf("schedgap: compile %s: %w", b.Name, err)
		}
		in0, in1 := b.Inputs(1)
		prof := interp.NewProfile()
		if _, err := interp.Run(prog, in0, in1, interp.Options{Profile: prof, MaxNodes: maxProfileNodes}); err != nil {
			return nil, fmt.Errorf("schedgap: profile %s: %w", b.Name, err)
		}
		units = append(units, &Unit{Name: b.Name, Prog: prog, Profile: prof})
	}
	return units, nil
}

// GeneratedCorpus compiles and profiles n deterministic generator
// programs, rotating the same feature profiles as the difftest sweep.
func GeneratedCorpus(n int, seed0 int64) ([]*Unit, error) {
	profiles := difftest.SweepProfiles()
	var units []*Unit
	for i := 0; i < n; i++ {
		seed := seed0 + int64(i)
		src := difftest.Generate(seed, profiles[i%len(profiles)])
		c, err := difftest.CompileCase(fmt.Sprintf("gen-%d.mc", seed), src,
			difftest.GenInput(seed*2, 180+int(seed%120)), difftest.GenInput(seed*2+1, 180+int((seed+7)%120)))
		if err != nil {
			return nil, fmt.Errorf("schedgap: generated seed %d: %w", seed, err)
		}
		units = append(units, &Unit{Name: c.Name, Prog: c.Prog, Profile: c.Profile})
	}
	return units, nil
}

// rowKey orders the sweep points.
type rowKey struct {
	issue int
	mem   byte
	chain int
}

type rowAcc struct {
	Summary
	overheads []float64
}

// Sweep measures one corpus across every sweep point of the configuration
// and returns its report plus any correctness violations.
func Sweep(name string, units []*Unit, cfg Config) (*CorpusReport, []Violation, error) {
	accs := make(map[rowKey]*rowAcc)
	var total rowAcc
	var violations []Violation

	opts := exact.Options{MaxNodes: cfg.MaxNodes, MaxExpanded: cfg.Budget}
	for _, u := range units {
		for _, chain := range cfg.Chains {
			var ef *enlarge.File
			branch := machine.SingleBB
			if chain > 0 {
				eo := enlarge.DefaultOptions()
				eo.MaxChainLen = chain
				ef = enlarge.Build(u.Prog, u.Profile, eo)
				branch = machine.EnlargedBB
			}
			for _, issue := range cfg.Issues {
				im, ok := machine.IssueModelByID(issue)
				if !ok {
					return nil, nil, fmt.Errorf("schedgap: bad issue model %d", issue)
				}
				for _, mem := range cfg.Mems {
					mc, ok := machine.MemConfigByID(mem)
					if !ok {
						return nil, nil, fmt.Errorf("schedgap: bad memory config %c", mem)
					}
					mcfg := machine.Config{Disc: machine.Static, Issue: im, Mem: mc, Branch: branch}
					img, err := loader.Load(u.Prog, mcfg, ef)
					if err != nil {
						return nil, nil, fmt.Errorf("schedgap: load %s %s: %w", u.Name, mcfg, err)
					}
					key := rowKey{issue, mem, chain}
					acc := accs[key]
					if acc == nil {
						acc = &rowAcc{}
						accs[key] = acc
					}
					rowName := fmt.Sprintf("issue%d/mem%c/chain%d", issue, mem, chain)
					for _, b := range img.Prog.Blocks {
						if b == nil {
							continue
						}
						var list sched.Schedule
						if words, ok := img.Words(b.ID); ok {
							list = words.Schedule()
						}
						v := measureBlock(b, list, im, mc.HitLatency, opts, cfg.SmallNode, acc, &total)
						for _, msg := range v {
							violations = append(violations, Violation{Unit: u.Name, Row: rowName, Block: b.ID, Msg: msg})
						}
					}
				}
			}
		}
	}

	keys := make([]rowKey, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.chain != b.chain {
			return a.chain < b.chain
		}
		if a.issue != b.issue {
			return a.issue < b.issue
		}
		return a.mem < b.mem
	})
	rep := &CorpusReport{Name: name, Units: len(units)}
	for _, k := range keys {
		acc := accs[k]
		acc.finish()
		mc, _ := machine.MemConfigByID(k.mem)
		rep.Rows = append(rep.Rows, Row{
			Issue: k.issue, Mem: string(k.mem), HitLat: mc.HitLatency, Chain: k.chain,
			Summary: acc.Summary,
		})
	}
	total.finish()
	rep.Total = total.Summary
	return rep, violations, nil
}

// measureBlock runs both schedulers on one block and folds the result into
// the row and total accumulators, returning any correctness violations.
func measureBlock(b *ir.Block, list sched.Schedule, im machine.IssueModel, hitLat int, opts exact.Options, smallNode int, accs ...*rowAcc) []string {
	var msgs []string
	if list == nil {
		return []string{"no list schedule in image"}
	}
	if err := sched.Validate(b, im, hitLat, list); err != nil {
		return []string{fmt.Sprintf("list schedule illegal: %v", err)}
	}
	listLen := sched.PlannedCycles(b, im, hitLat, list)
	r := exact.Schedule(b, im, hitLat, opts)
	if err := sched.Validate(b, im, hitLat, r.Schedule); err != nil {
		return []string{fmt.Sprintf("exact schedule illegal: %v", err)}
	}
	if r.Length > listLen {
		msgs = append(msgs, fmt.Sprintf("list length %d beats exact %d (%s)", listLen, r.Length, r.Status))
	}
	if r.LowerBound > r.Length {
		msgs = append(msgs, fmt.Sprintf("lower bound %d above length %d", r.LowerBound, r.Length))
	}
	if len(msgs) > 0 {
		return msgs
	}

	overhead := 100 * float64(listLen-r.Length) / float64(r.Length)
	small := b.NumNodes() <= smallNode
	for _, acc := range accs {
		acc.Blocks++
		switch r.Status {
		case exact.Proved:
			acc.Proved++
			if listLen == r.Length {
				acc.Optimal++
			}
		case exact.BoundOnly:
			acc.BoundOnly++
		case exact.TooLarge:
			acc.TooLarge++
		}
		if small {
			acc.Small++
			if r.Status == exact.Proved {
				acc.SmallProved++
			}
		}
		acc.CyclesList += int64(listLen)
		acc.CyclesExact += int64(r.Length)
		acc.overheads = append(acc.overheads, overhead)
	}
	return nil
}

// finish computes the percentile fields from the accumulated overheads.
func (a *rowAcc) finish() {
	if len(a.overheads) == 0 {
		return
	}
	sort.Float64s(a.overheads)
	pct := func(p int) float64 {
		idx := p * (len(a.overheads) - 1) / 100
		return a.overheads[idx]
	}
	a.P50OverheadPct = pct(50)
	a.P99OverheadPct = pct(99)
	sum := 0.0
	for _, o := range a.overheads {
		sum += o
	}
	a.MeanOverheadPct = sum / float64(len(a.overheads))
	a.MaxOverheadPct = a.overheads[len(a.overheads)-1]
}

// Run measures both corpora under one configuration.
func Run(cfg Config) (*Report, []Violation, error) {
	minic, err := MiniCCorpus()
	if err != nil {
		return nil, nil, err
	}
	gen, err := GeneratedCorpus(cfg.GenCount, cfg.GenSeed)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Config: cfg}
	var all []Violation
	for _, c := range []struct {
		name  string
		units []*Unit
	}{{"minic", minic}, {"generated", gen}} {
		cr, vs, err := Sweep(c.name, c.units, cfg)
		if err != nil {
			return nil, nil, err
		}
		rep.Corpora = append(rep.Corpora, *cr)
		all = append(all, vs...)
	}
	return rep, all, nil
}
