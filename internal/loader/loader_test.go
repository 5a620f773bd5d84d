package loader_test

import (
	"bytes"
	"testing"

	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
)

const src = `
int acc = 0;
int step(int x) {
	if (x % 3 == 0) return x * 2;
	return x + 1;
}
int main() {
	int i;
	int c = getc(0);
	while (c >= 0) {
		for (i = 0; i < 10; i++) acc = acc + step(i + c);
		putc('a' + acc % 26);
		c = getc(0);
	}
	return 0;
}
`

func compile(t *testing.T) *ir.Program {
	t.Helper()
	p, err := minic.Compile("t.mc", src, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cfg(d machine.Discipline, bm machine.BranchMode) machine.Config {
	im, _ := machine.IssueModelByID(8)
	mc, _ := machine.MemConfigByID('A')
	return machine.Config{Disc: d, Issue: im, Mem: mc, Branch: bm}
}

func profileAndEnlarge(t *testing.T, p *ir.Program, in []byte) *enlarge.File {
	t.Helper()
	prof := interp.NewProfile()
	if _, err := interp.Run(p, in, nil, interp.Options{Profile: prof, MaxNodes: 1 << 24}); err != nil {
		t.Fatal(err)
	}
	ef := enlarge.Build(p, prof, enlarge.Options{MinArcWeight: 4, MinRatio: 0.6, MaxChainLen: 6, MaxInstances: 16})
	if len(ef.Chains) == 0 {
		t.Fatal("no chains")
	}
	return ef
}

func TestCloneIsDeep(t *testing.T) {
	p := compile(t)
	c := loader.Clone(p)
	c.Blocks[0].Body = append(c.Blocks[0].Body, ir.Node{Op: ir.Const, Dst: 5})
	origLen := len(p.Blocks[0].Body)
	if len(c.Blocks[0].Body) == origLen {
		t.Fatal("clone body not independent")
	}
	c.Funcs[0].Blocks = append(c.Funcs[0].Blocks, 0)
	if len(p.Funcs[0].Blocks) == len(c.Funcs[0].Blocks) {
		t.Fatal("clone func block list not independent")
	}
}

func TestLoadSingleBBNeedsNoFile(t *testing.T) {
	p := compile(t)
	img, err := loader.Load(p, cfg(machine.Dyn4, machine.SingleBB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Chains) != 0 || len(img.EntryMap) != 0 {
		t.Error("single-BB image should have no enlargement metadata")
	}
}

func TestLoadEnlargedRequiresFile(t *testing.T) {
	p := compile(t)
	if _, err := loader.Load(p, cfg(machine.Dyn4, machine.EnlargedBB), nil); err == nil {
		t.Fatal("enlarged mode without a file should fail")
	}
}

func TestEnlargedImageStructure(t *testing.T) {
	p := compile(t)
	ef := profileAndEnlarge(t, p, []byte("hello world"))
	img, err := loader.Load(p, cfg(machine.Dyn4, machine.EnlargedBB), ef)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.EntryMap) != len(ef.Chains) {
		t.Errorf("entry map has %d entries for %d chains", len(img.EntryMap), len(ef.Chains))
	}
	// Base program untouched.
	if len(img.Prog.Blocks) <= len(p.Blocks) {
		t.Error("no blocks were materialized")
	}
	for orig, enl := range img.EntryMap {
		eb := img.Prog.Block(enl)
		chain := img.ChainOf(enl)
		if chain[0] != orig {
			t.Errorf("chain of %d starts at %d, want %d", enl, chain[0], orig)
		}
		if eb.Orig != orig {
			t.Errorf("enlarged block Orig = %d, want %d", eb.Orig, orig)
		}
		// Primary blocks for multi-step chains with conditional steps
		// contain asserts pointing at prefix blocks that themselves have
		// no asserts.
		for i := range eb.Body {
			if eb.Body[i].Op == ir.Assert {
				fb := img.Prog.Block(eb.Body[i].Target)
				for k := range fb.Body {
					if fb.Body[k].Op == ir.Assert {
						t.Error("fault-recovery prefix block contains an assert")
					}
				}
				if fb.Term.Op != ir.Jmp {
					t.Errorf("prefix block ends with %s, want jmp", fb.Term.Op)
				}
			}
		}
	}
	if err := img.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnlargedProgramSemanticsPreserved(t *testing.T) {
	p := compile(t)
	ef := profileAndEnlarge(t, p, []byte("profiling input text"))
	input := []byte("different measurement text!")
	ref, err := interp.Run(p, input, nil, interp.Options{MaxNodes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []machine.Discipline{machine.Static, machine.Dyn4} {
		img, err := loader.Load(p, cfg(d, machine.EnlargedBB), ef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := interp.Run(img.Prog, input, nil, interp.Options{MaxNodes: 1 << 24})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Output, ref.Output) {
			t.Fatalf("%s: enlarged program output %q, want %q", d, got.Output, ref.Output)
		}
		// Re-optimization should reduce the retired node count.
		if got.RetiredNodes >= ref.RetiredNodes {
			t.Errorf("%s: enlarged program retired %d nodes, original %d (expected fewer)",
				d, got.RetiredNodes, ref.RetiredNodes)
		}
	}
}

func TestStaticImageHasSchedules(t *testing.T) {
	p := compile(t)
	img, err := loader.Load(p, cfg(machine.Static, machine.SingleBB), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range img.Prog.Blocks {
		s, ok := img.Words(b.ID)
		if !ok {
			t.Fatalf("block %d has no schedule", b.ID)
		}
		n := 0
		for i := 0; i < s.Len(); i++ {
			n += len(s.Word(i))
		}
		if n != len(b.Body)+1 {
			t.Fatalf("block %d schedule covers %d of %d nodes", b.ID, n, len(b.Body)+1)
		}
	}
}

func TestDynamicImageHasNoSchedules(t *testing.T) {
	p := compile(t)
	img, err := loader.Load(p, cfg(machine.Dyn256, machine.SingleBB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := img.Words(0); ok {
		t.Error("dynamic image should not carry word schedules")
	}
}

func TestImageSerializationRoundTrip(t *testing.T) {
	p := compile(t)
	ef := profileAndEnlarge(t, p, []byte("roundtrip input"))
	img, err := loader.Load(p, cfg(machine.Static, machine.EnlargedBB), ef)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := loader.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cfg.String() != img.Cfg.String() {
		t.Errorf("config %s != %s", back.Cfg, img.Cfg)
	}
	if len(back.Prog.Blocks) != len(img.Prog.Blocks) {
		t.Error("block count changed")
	}
	scheduled := func(im *loader.Image) int {
		n := 0
		for _, b := range im.Prog.Blocks {
			if _, ok := im.Words(b.ID); ok {
				n++
			}
		}
		return n
	}
	if scheduled(back) != scheduled(img) {
		t.Error("schedules lost")
	}
	in := []byte("check execution")
	// The static engine reads the packed schedule, so the timed runs agree
	// only if it survived the round trip word for word.
	ra, err := core.Run(img, in, nil, nil, nil, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.Run(back, in, nil, nil, nil, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if exp.DigestStats(ra.Stats) != exp.DigestStats(rb.Stats) {
		t.Errorf("deserialized image simulates differently: %d cycles, want %d", rb.Stats.Cycles, ra.Stats.Cycles)
	}
	a, err := interp.Run(img.Prog, in, nil, interp.Options{MaxNodes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := interp.Run(back.Prog, in, nil, interp.Options{MaxNodes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Error("deserialized image computes differently")
	}
}

func TestTermOrigMapping(t *testing.T) {
	p := compile(t)
	ef := profileAndEnlarge(t, p, []byte("abcdefg"))
	img, err := loader.Load(p, cfg(machine.Dyn4, machine.EnlargedBB), ef)
	if err != nil {
		t.Fatal(err)
	}
	for _, enl := range img.EntryMap {
		chain := img.ChainOf(enl)
		if got := img.TermOrigOf(enl); got != chain[len(chain)-1] {
			t.Errorf("TermOrig of %d = %d, want final chain step %d", enl, got, chain[len(chain)-1])
		}
	}
	// Identity for original blocks.
	if img.TermOrigOf(0) != 0 {
		t.Error("TermOrig of an original block should be itself")
	}
}
