package difftest

import (
	"testing"

	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
)

// exactStatic returns the variant list with every static variant flipped
// to the exact scheduler — the opt-in -sched=exact mode, pushed through
// whatever harness the caller pairs it with.
func exactStatic(vs []Variant) []Variant {
	out := make([]Variant, len(vs))
	copy(out, vs)
	n := 0
	for i := range out {
		if out[i].Cfg.Disc == machine.Static {
			out[i].Cfg.Sched = machine.ExactSched
			n++
		}
	}
	if n == 0 {
		panic("difftest: matrix has no static variants to flip")
	}
	return out
}

// TestExactSchedMatrix runs generated programs through the full oracle
// matrix with the static variants using -sched=exact images: outputs stay
// byte-identical to the reference interpreter and retired node/block
// counts architectural. Exact scheduling reorders words, never semantics —
// any divergence here means the exact scheduler broke a legality rule the
// engine relies on.
func TestExactSchedMatrix(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	matrix := exactStatic(Matrix())
	for trial := 0; trial < trials; trial++ {
		seed := int64(7000 + trial)
		opts := genProfiles[trial%len(genProfiles)]
		src := Generate(seed, opts)
		c, err := CompileCase("gen.mc", src, GenInput(seed*2, 180+int(seed%120)), GenInput(seed*2+1, 180+int((seed+7)%120)))
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		rep, err := c.Oracle(matrix)
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		for _, d := range rep.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged under -sched=exact; program:\n%s", seed, src)
		}
		if got := len(rep.Runs); got != len(matrix) {
			t.Fatalf("seed %d: %d runs, want %d", seed, got, len(matrix))
		}
	}
}

// TestSnapshotOracleExactSched: checkpoint/restore of an exact-scheduled
// static run is bit-identical — the snapshot fingerprint covers the
// scheduler kind (a list-scheduled snapshot must not resume into an
// exact-scheduled image), and resumed runs reproduce the straight run
// exactly. Only the static variants matter, so the sweep is restricted to
// them.
func TestSnapshotOracleExactSched(t *testing.T) {
	var static []Variant
	for _, v := range exactStatic(SnapshotMatrix()) {
		if v.Cfg.Disc == machine.Static {
			static = append(static, v)
		}
	}
	if len(static) == 0 {
		t.Fatal("snapshot matrix lost its static variants")
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(8200 + trial)
		opts := genProfiles[trial%len(genProfiles)]
		src := Generate(seed, opts)
		c, err := CompileCase("gen.mc", src, GenInput(seed*2, 160), GenInput(seed*2+1, 160))
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		rep, err := c.SnapshotOracle(static, uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		for _, d := range rep.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
		if t.Failed() {
			t.Fatalf("seed %d snapshot oracle diverged under -sched=exact; program:\n%s", seed, src)
		}
	}
}

// TestExactImageFingerprintDistinct: the scheduler kind must be part of
// the image identity — resuming a list-scheduled snapshot into an
// exact-scheduled image (or sharing a cached image across the two) would
// silently replay against different words.
func TestExactImageFingerprintDistinct(t *testing.T) {
	seed := int64(7400)
	src := Generate(seed, DefaultGenOptions())
	c, err := CompileCase("gen.mc", src, GenInput(seed*2, 120), GenInput(seed*2+1, 120))
	if err != nil {
		t.Fatal(err)
	}
	im, _ := machine.IssueModelByID(8)
	mc, _ := machine.MemConfigByID('D')
	cfg := machine.Config{Disc: machine.Static, Issue: im, Mem: mc, Branch: machine.SingleBB}
	list, err := loader.Load(c.Prog, cfg, c.EF)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched = machine.ExactSched
	ex, err := loader.Load(c.Prog, cfg, c.EF)
	if err != nil {
		t.Fatal(err)
	}
	if list.Fingerprint() == ex.Fingerprint() {
		t.Fatal("list- and exact-scheduled images share a fingerprint")
	}
	// The exact image must differ only in schedules, never in code.
	scheduled := func(img *loader.Image) int {
		n := 0
		for _, b := range img.Prog.Blocks {
			if _, ok := img.Words(b.ID); ok {
				n++
			}
		}
		return n
	}
	if got, want := scheduled(ex), scheduled(list); got != want {
		t.Fatalf("schedule count differs: %d vs %d", got, want)
	}
}
