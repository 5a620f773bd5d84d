// Package exp is the experiment harness: it prepares each benchmark the way
// the paper does (profile on input set 1, build the enlargement file,
// record the perfect-prediction trace on input set 2), runs machine
// configurations in parallel, verifies every simulated run against the
// functional interpreter, and extracts the data series behind each of the
// paper's figures.
package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"fgpsim/internal/bench"
	"fgpsim/internal/branch"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// Prepared is one benchmark made ready for measurement runs.
type Prepared struct {
	Bench *bench.Benchmark
	Prog  *ir.Program

	Profile *interp.Profile
	EF      *enlarge.File
	Hints   map[ir.BlockID]bool

	// Measurement input (set 2) and its reference run.
	In0, In1  []byte
	Trace     []ir.BlockID
	RefOutput []byte
	RefNodes  int64

	// imgs memoizes translating-loader results across runs (imgcache.go).
	imgs imageCache
}

// Prepare runs the paper's two-input methodology for one benchmark.
func Prepare(b *bench.Benchmark, eo enlarge.Options) (*Prepared, error) {
	prog, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", b.Name, err)
	}
	p := &Prepared{Bench: b, Prog: prog}

	// Profiling run on input set 1.
	p1in0, p1in1 := b.Inputs(1)
	p.Profile = interp.NewProfile()
	if _, err := interp.Run(prog, p1in0, p1in1, interp.Options{Profile: p.Profile, MaxNodes: 200_000_000}); err != nil {
		return nil, fmt.Errorf("exp: %s profile run: %w", b.Name, err)
	}
	p.EF = enlarge.Build(prog, p.Profile, eo)
	p.Hints = branch.HintsFromProfile(p.Profile.Taken, p.Profile.NotTaken)

	// Reference + trace run on input set 2.
	p.In0, p.In1 = b.Inputs(2)
	ref, err := interp.Run(prog, p.In0, p.In1, interp.Options{RecordTrace: true, MaxNodes: 200_000_000})
	if err != nil {
		return nil, fmt.Errorf("exp: %s reference run: %w", b.Name, err)
	}
	p.Trace = ref.Trace
	p.RefOutput = ref.Output
	p.RefNodes = ref.RetiredNodes
	return p, nil
}

// Run simulates one machine configuration and verifies its output.
func (p *Prepared) Run(cfg machine.Config) (*stats.Run, error) {
	return p.RunContext(context.Background(), cfg, core.Limits{})
}

// RunContext is Run with cancellation and explicit engine limits (cycle
// caps, fault-injection hooks, pipeline logs). A structurally corrupt
// enlargement file does not fail the run: the configuration degrades to
// its single-basic-block equivalent and the degradation is counted in the
// returned stats (EFDegradations).
func (p *Prepared) RunContext(ctx context.Context, cfg machine.Config, lim core.Limits) (*stats.Run, error) {
	img, degradations, err := p.ResolveImage(cfg)
	if err != nil {
		return nil, err
	}
	return p.runImage(ctx, img, cfg, degradations, lim)
}

// ResolveImage loads the image a configuration will simulate, applying the
// degradation ladder for a structurally corrupt enlargement file (the count
// of degradations taken is returned alongside). It is exported so callers
// that need the image before running — to fingerprint it for a snapshot
// resume, say — resolve it exactly once and exactly the way RunContext
// would. The image is shared and read-only.
func (p *Prepared) ResolveImage(cfg machine.Config) (*loader.Image, int64, error) {
	img, err := p.image(cfg)
	if err == nil {
		return img, 0, nil
	}
	var be *loader.BadEnlargementError
	if !errors.As(err, &be) {
		return nil, 0, fmt.Errorf("exp: %s %s: %w", p.Bench.Name, cfg, err)
	}
	// Degrade to the single-block translation: EnlargedBB becomes SingleBB,
	// and Perfect keeps its oracle predictor and drops only the
	// enlargement.
	fallback := cfg
	if cfg.Branch == machine.EnlargedBB {
		fallback.Branch = machine.SingleBB
	}
	img, err = p.imgs.load(p.Prog, p.EF, fallback, false)
	if err != nil {
		return nil, 0, fmt.Errorf("exp: %s %s (degraded): %w", p.Bench.Name, cfg, err)
	}
	return img, 1, nil
}

// runImage simulates a resolved image and verifies its output.
func (p *Prepared) runImage(ctx context.Context, img *loader.Image, cfg machine.Config, degradations int64, lim core.Limits) (*stats.Run, error) {
	res, err := core.RunContext(ctx, img, p.In0, p.In1, p.Trace, p.Hints, lim)
	if err != nil {
		return nil, fmt.Errorf("exp: %s %s: %w", p.Bench.Name, cfg, err)
	}
	if !bytes.Equal(res.Output, p.RefOutput) {
		return nil, fmt.Errorf("exp: %s %s: simulated output differs from reference", p.Bench.Name, cfg)
	}
	// Normalize work to the original program's node count so that
	// configurations with different code (enlarged blocks) compare by time.
	res.Stats.Work = p.RefNodes
	res.Stats.EFDegradations = degradations
	return res.Stats, nil
}

// Key identifies one grid point, including the extension dimensions
// (window override and predictor kind) so sweeps over them do not collide.
type Key struct {
	Bench  string
	Disc   machine.Discipline
	Issue  int
	Mem    byte
	Branch machine.BranchMode
	Window int // Config.WindowOverride (0 = discipline default)
	Pred   machine.PredictorKind
}

// KeyOf builds the key for a benchmark and configuration.
func KeyOf(benchName string, cfg machine.Config) Key {
	return Key{
		Bench:  benchName,
		Disc:   cfg.Disc,
		Issue:  cfg.Issue.ID,
		Mem:    cfg.Mem.ID,
		Branch: cfg.Branch,
		Window: cfg.WindowOverride,
		Pred:   cfg.Predictor,
	}
}

// Results is the measured grid.
type Results struct {
	mu   sync.Mutex
	Runs map[Key]*stats.Run

	// Failed holds the quarantined cells of a hardened sweep (GridContext):
	// cells whose runs kept failing after retries, or panicked.
	Failed []*CellError
}

// Get returns the run for a key, or nil.
func (r *Results) Get(k Key) *stats.Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Runs[k]
}

func (r *Results) put(k Key, s *stats.Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Runs[k] = s
}

func (r *Results) fail(ce *CellError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed = append(r.Failed, ce)
}

// Grid runs the given configurations for every prepared benchmark, in
// parallel across workers goroutines (0 = GOMAXPROCS). progress, when
// non-nil, is called after each completed run. Any cell failure fails the
// whole sweep with the lowest-index cell's error; GridContext offers the
// hardened semantics (retries, journaling, quarantined failures).
func Grid(prepared []*Prepared, cfgs []machine.Config, workers int, progress func(done, total int)) (*Results, error) {
	res, err := GridContext(context.Background(), prepared, cfgs, GridOptions{Workers: workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// GeoMeanNPC returns the geometric mean of work-normalized nodes per cycle
// across benchmarks for one configuration (the aggregation used in Figures
// 3/4). The normalization divides each benchmark's original-program node
// count by the measured cycles, so enlarged-block configurations are
// credited for the nodes their re-optimization eliminated.
func (r *Results) GeoMeanNPC(benchNames []string, cfg machine.Config) float64 {
	logSum, n := 0.0, 0
	for _, name := range benchNames {
		s := r.Get(KeyOf(name, cfg))
		if s == nil || s.Speed() <= 0 {
			return math.NaN()
		}
		logSum += math.Log(s.Speed())
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// MeanRedundancy averages operation redundancy across benchmarks for one
// configuration (Figure 6).
func (r *Results) MeanRedundancy(benchNames []string, cfg machine.Config) float64 {
	sum, n := 0.0, 0
	for _, name := range benchNames {
		s := r.Get(KeyOf(name, cfg))
		if s == nil {
			return math.NaN()
		}
		sum += s.Redundancy()
		n++
	}
	return sum / float64(n)
}

// Curve is one line of Figures 3/4/6: a scheduling discipline plus branch
// mode.
type Curve struct {
	Disc   machine.Discipline
	Branch machine.BranchMode
}

func (c Curve) String() string {
	return fmt.Sprintf("%s/%s", c.Disc, c.Branch)
}

// Curves lists the ten lines of Figures 3, 4, and 6 in the paper's order:
// the four disciplines with single then enlarged blocks, then the two
// perfect-prediction disciplines.
func Curves() []Curve {
	var cs []Curve
	for _, bm := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
		for _, d := range machine.Disciplines {
			cs = append(cs, Curve{d, bm})
		}
	}
	cs = append(cs, Curve{machine.Dyn4, machine.Perfect}, Curve{machine.Dyn256, machine.Perfect})
	return cs
}

// BenchNames returns the prepared benchmarks' names in order.
func BenchNames(prepared []*Prepared) []string {
	names := make([]string, len(prepared))
	for i, p := range prepared {
		names[i] = p.Bench.Name
	}
	sort.Strings(names)
	return names
}
