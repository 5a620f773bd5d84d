package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fgpsim/internal/bench"
	"fgpsim/internal/core"
	"fgpsim/internal/difftest"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
)

// cacheFixture compiles a small program and builds its enlargement file, the
// two inputs every imageCache.load call needs.
func cacheFixture(t *testing.T) (*ir.Program, *enlarge.File) {
	t.Helper()
	const src = `
int main() {
	int i;
	int acc = 0;
	for (i = 0; i < 40; i++) {
		if (i % 3) acc += i; else acc -= i;
	}
	putc('a' + (acc % 26 + 26) % 26);
	return 0;
}
`
	prog, err := minic.Compile("cache.mc", src, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := interp.NewProfile()
	if _, err := interp.Run(prog, nil, nil, interp.Options{Profile: prof, MaxNodes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	return prog, enlarge.Build(prog, prof, enlarge.DefaultOptions())
}

func cacheCfg(t *testing.T, d machine.Discipline, issue int, mem byte, bm machine.BranchMode) machine.Config {
	t.Helper()
	im, ok := machine.IssueModelByID(issue)
	if !ok {
		t.Fatalf("no issue model %d", issue)
	}
	mc, ok := machine.MemConfigByID(mem)
	if !ok {
		t.Fatalf("no mem config %c", mem)
	}
	return machine.Config{Disc: d, Issue: im, Mem: mc, Branch: bm}
}

// TestImageCacheKeyIsolation pins which Config fields are codegen-relevant:
// configurations differing only in engine-level knobs (window, predictor,
// BTB, discipline for dynamic machines) share one translated program, and
// so do static machines of one block mode, which differ in their packed
// schedules alone. The block mode, the static issue model and the static
// hit latency each get their own schedule.
func TestImageCacheKeyIsolation(t *testing.T) {
	prog, ef := cacheFixture(t)
	p := &Prepared{Prog: prog, EF: ef}

	load := func(cfg machine.Config) *loader.Image {
		img, err := p.image(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if img.Cfg != cfg {
			t.Fatalf("%s: cached hit returned Cfg %s", cfg, img.Cfg)
		}
		return img
	}

	// Same block mode across engine-level variation: one translation.
	base := cacheCfg(t, machine.Dyn4, 8, 'A', machine.EnlargedBB)
	p1 := load(base).Prog
	if p1 == prog {
		t.Fatal("the enlarged translation is the base program")
	}
	deep := base
	deep.WindowOverride = 17
	gshare := cacheCfg(t, machine.Dyn256, 8, 'E', machine.EnlargedBB)
	gshare.Predictor = machine.GSharePredictor
	perfect := cacheCfg(t, machine.Dyn1, 2, 'C', machine.Perfect)
	for _, cfg := range []machine.Config{deep, gshare, perfect} {
		if img := load(cfg); img.Prog != p1 || img.Schedule != nil {
			t.Errorf("%s: did not share the enlarged translation, schedule-free", cfg)
		}
	}

	// SingleBB runs the base program itself.
	single := cacheCfg(t, machine.Dyn4, 8, 'A', machine.SingleBB)
	if img := load(single); img.Prog != prog {
		t.Error("SingleBB did not share the base program")
	}

	// Static machines share their block mode's translation and get one
	// schedule per issue model and hit latency.
	staticA := cacheCfg(t, machine.Static, 4, 'A', machine.EnlargedBB)
	staticB := cacheCfg(t, machine.Static, 8, 'A', machine.EnlargedBB) // other issue model
	staticC := cacheCfg(t, machine.Static, 4, 'B', machine.EnlargedBB) // other hit latency
	if staticA.Mem.HitLatency == staticC.Mem.HitLatency {
		t.Fatalf("fixture mem configs A and B share hit latency %d; pick another pair", staticA.Mem.HitLatency)
	}
	ia, ib, ic := load(staticA), load(staticB), load(staticC)
	for _, img := range []*loader.Image{ia, ib, ic} {
		if img.Prog != p1 {
			t.Errorf("%s: did not share the enlarged translation", img.Cfg)
		}
		if img.Schedule == nil {
			t.Fatalf("%s: static image without a schedule", img.Cfg)
		}
	}
	if ia.Schedule == ib.Schedule || ia.Schedule == ic.Schedule || ib.Schedule == ic.Schedule {
		t.Error("static images with distinct issue/hit-latency shared a schedule")
	}
	staticSingle := cacheCfg(t, machine.Static, 4, 'A', machine.SingleBB)
	if img := load(staticSingle); img.Prog != prog || img.Schedule == ia.Schedule {
		t.Error("a static SingleBB machine shared the enlarged translation's schedule")
	}
	if len(p.imgs.scheds) != 4 {
		t.Errorf("cache holds %d schedules, want 4 distinct static keys", len(p.imgs.scheds))
	}

	// A repeat of an early key is a hit even after later inserts.
	if img := load(staticA); img.Schedule != ia.Schedule {
		t.Error("revisiting a static key repacked instead of hitting")
	}
	if img := load(base); img.Prog != p1 {
		t.Error("revisiting the first key retranslated instead of hitting")
	}
}

// TestImageCacheLRUEviction fills the schedule cache past capacity with
// synthetic entries and checks that load evicts exactly the least recently
// used ones.
func TestImageCacheLRUEviction(t *testing.T) {
	prog, ef := cacheFixture(t)
	p := &Prepared{Prog: prog, EF: ef}
	c := &p.imgs

	// One real entry so the map exists, then synthetic filler keyed by fake
	// hit latencies. Ticks are assigned in insertion order, so entry i is
	// older than entry i+1.
	real := cacheCfg(t, machine.Static, 8, 'A', machine.EnlargedBB)
	img, err := p.image(real)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(i int) schedKey { return schedKey{hitLat: 1000 + i} }
	for i := 0; len(c.scheds) < scheduleCacheCap; i++ {
		c.tick++
		c.scheds[fill(i)] = &schedEnt{s: img.Schedule, used: c.tick}
	}

	// Touch the real entry (the oldest) so the LRU victim becomes fill(0).
	if _, err := p.image(real); err != nil {
		t.Fatal(err)
	}

	// A miss at capacity evicts exactly one entry: the least recently used.
	other := cacheCfg(t, machine.Static, 4, 'A', machine.EnlargedBB)
	if _, err := p.image(other); err != nil {
		t.Fatal(err)
	}
	if len(c.scheds) != scheduleCacheCap {
		t.Fatalf("cache holds %d schedules after eviction, want %d", len(c.scheds), scheduleCacheCap)
	}
	if _, ok := c.scheds[fill(0)]; ok {
		t.Error("LRU victim fill(0) survived eviction")
	}
	if _, ok := c.scheds[schedKeyOf(real, true)]; !ok {
		t.Error("recently touched entry was evicted")
	}
	if _, ok := c.scheds[schedKeyOf(other, true)]; !ok {
		t.Error("newly packed entry missing")
	}
	if _, ok := c.scheds[fill(1)]; !ok {
		t.Error("second-oldest filler evicted; eviction took more than the LRU entry")
	}
}

// TestImageCacheFillUnitBypass checks that FillUnit runs never share an
// image: the fill unit enlarges its program at run time, so a cached copy
// would leak one run's materialized chains into the next, and the shared
// translations would change under every other run.
func TestImageCacheFillUnitBypass(t *testing.T) {
	prog, ef := cacheFixture(t)
	p := &Prepared{Prog: prog, EF: ef}

	fu := cacheCfg(t, machine.Dyn256, 8, 'D', machine.FillUnit)
	im1, err := p.image(fu)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := p.image(fu)
	if err != nil {
		t.Fatal(err)
	}
	if im1.Prog == im2.Prog {
		t.Error("two FillUnit loads shared a program clone")
	}
	if p.imgs.single.img != nil || p.imgs.enlarged.img != nil || len(p.imgs.scheds) != 0 {
		t.Error("FillUnit load populated the cache")
	}

	// Cacheable modes still go through the cache on the same Prepared, and
	// a later FillUnit load receives neither shared program.
	var shared []*ir.Program
	for _, bm := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
		img, err := p.image(cacheCfg(t, machine.Dyn4, 8, 'A', bm))
		if err != nil {
			t.Fatal(err)
		}
		shared = append(shared, img.Prog)
	}
	if p.imgs.single.img == nil || p.imgs.enlarged.img == nil {
		t.Error("cacheable loads left a translation uncached")
	}
	im3, err := p.image(fu)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range shared {
		if im3.Prog == sp {
			t.Error("FillUnit load received a shared translation's program")
		}
	}
}

// TestImagesShareTranslations: every figure configuration on sort runs one
// of exactly two programs, the compiled one and one materialized
// enlargement; static images of one block mode differ only in their
// schedules; and running a static, a dynamic, a perfect and a FillUnit
// cell changes neither shared program, since the FillUnit run enlarges a
// private one.
func TestImagesShareTranslations(t *testing.T) {
	p, err := Prepare(bench.ByName("sort"), enlarge.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	progs := make(map[*ir.Program]bool)
	firstStatic := make(map[bool]*loader.Image) // by enlarged block mode
	for _, cfg := range FigureConfigs() {
		img, deg, err := p.ResolveImage(cfg)
		if err != nil || deg != 0 {
			t.Fatalf("%s: resolve: %v (%d degradations)", cfg, err, deg)
		}
		progs[img.Prog] = true
		if cfg.Disc != machine.Static {
			continue
		}
		first := firstStatic[enlargedMode(cfg.Branch)]
		if first == nil {
			firstStatic[enlargedMode(cfg.Branch)] = img
			continue
		}
		same := *first
		same.Cfg, same.Schedule = img.Cfg, img.Schedule
		if same.Prog != img.Prog || !reflect.DeepEqual(&same, img) {
			t.Errorf("%s: differs from %s beyond its schedule", cfg, first.Cfg)
		}
	}
	if len(progs) != 2 || !progs[p.Prog] {
		t.Fatalf("figure configurations ran %d programs, want p.Prog and one enlargement", len(progs))
	}
	var enlarged *ir.Program
	for prog := range progs {
		if prog != p.Prog {
			enlarged = prog
		}
	}
	fpSingle, fpEnlarged := loader.ProgramFingerprint(p.Prog), loader.ProgramFingerprint(enlarged)

	for _, c := range []Curve{{machine.Static, machine.EnlargedBB}, {machine.Dyn4, machine.SingleBB}, {machine.Dyn256, machine.Perfect}} {
		if _, err := p.Run(MustConfigFor(c, 8, 'A')); err != nil {
			t.Fatal(err)
		}
	}
	fu := MustConfigFor(Curve{machine.Dyn256, machine.FillUnit}, 8, 'A')
	img, _, err := p.ResolveImage(fu)
	if err != nil {
		t.Fatal(err)
	}
	if img.Prog == p.Prog || img.Prog == enlarged {
		t.Fatal("the FillUnit image received a shared program")
	}
	s, err := p.runImage(context.Background(), img, fu, 0, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if s.RetiredBlocks == 0 || len(img.EntryMap) == 0 {
		t.Errorf("the FillUnit run enlarged nothing (%d blocks retired)", s.RetiredBlocks)
	}
	if loader.ProgramFingerprint(p.Prog) != fpSingle || loader.ProgramFingerprint(enlarged) != fpEnlarged {
		t.Error("running cells changed a shared program")
	}
}

// TestImageCacheConcurrent: four goroutines resolving and running a mixed
// set of configurations on one Prepared at once — so translations and
// schedules are made while other runs read them — produce the statistics
// of a sequential run, cell for cell.
func TestImageCacheConcurrent(t *testing.T) {
	const seed = 2101
	src := difftest.Generate(seed, difftest.DefaultGenOptions())
	in := difftest.GenInput(seed*2, 40)
	b := &bench.Benchmark{Name: "gen", Source: src, Inputs: func(int) ([]byte, []byte) { return in, nil }}
	prepare := func() *Prepared {
		p, err := Prepare(b, enlarge.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfgs := []machine.Config{
		MustConfigFor(Curve{machine.Static, machine.SingleBB}, 8, 'A'),
		MustConfigFor(Curve{machine.Static, machine.EnlargedBB}, 8, 'A'),
		MustConfigFor(Curve{machine.Static, machine.EnlargedBB}, 4, 'B'),
		MustConfigFor(Curve{machine.Dyn4, machine.SingleBB}, 8, 'D'),
		MustConfigFor(Curve{machine.Dyn256, machine.EnlargedBB}, 8, 'A'),
		MustConfigFor(Curve{machine.Dyn4, machine.Perfect}, 8, 'A'),
		MustConfigFor(Curve{machine.Dyn256, machine.FillUnit}, 8, 'A'),
	}
	seq := prepare()
	if len(seq.EF.Chains) == 0 {
		t.Fatal("fixture program has no enlargement chains")
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		s, err := seq.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = DigestStats(s)
	}

	p := prepare()
	const goroutines = 4
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]string, len(cfgs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cfgs {
				i := (g + k) % len(cfgs) // each goroutine starts on another key
				s, err := p.Run(cfgs[i])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[g][i] = DigestStats(s)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, cfg := range cfgs {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d: %s: stats %s, sequential %s", g, cfg, got[g][i], want[i])
			}
		}
	}
}
