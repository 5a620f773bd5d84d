package difftest

import (
	"strings"
	"testing"

	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/minic"
	"fgpsim/internal/sched/exact"
)

// genProfiles are the feature mixes the oracle sweep rotates through
// (SweepProfiles, shared with cmd/difftest so failure seeds replay under
// the same profile).
var genProfiles = SweepProfiles()

// TestGenerateDeterministic: the generator is a pure function of seed and
// options — corpus entries and failure seeds must reproduce forever.
func TestGenerateDeterministic(t *testing.T) {
	for _, o := range genProfiles {
		if Generate(42, o) != Generate(42, o) {
			t.Fatal("Generate is not deterministic")
		}
	}
	if Generate(1, DefaultGenOptions()) == Generate(2, DefaultGenOptions()) {
		t.Fatal("distinct seeds produced identical programs")
	}
	if string(GenInput(7, 64)) != string(GenInput(7, 64)) {
		t.Fatal("GenInput is not deterministic")
	}
}

// TestOracleGeneratedPrograms is the standing differential sweep: 200
// generated programs (a rotating mix of feature profiles), each compiled
// once and pushed through the full engine × predictor × enlargement matrix
// plus the metamorphic invariants. Any divergence fails with the seed, so
// the exact case replays with:
//
//	go run ./cmd/difftest -gen 1 -seed <seed>
func TestOracleGeneratedPrograms(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 12
	}
	matrix := Matrix()
	schedMatrix := ScheduleMatrix()
	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
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
			t.Fatalf("seed %d diverged; program:\n%s", seed, src)
		}
		if got := len(rep.Runs); got != len(matrix) {
			t.Fatalf("seed %d: %d runs, want %d", seed, got, len(matrix))
		}
		// The schedule oracle rides the same sweep: every static image's
		// list schedule legal and never shorter than the exact optimum.
		srep, err := c.ScheduleOracle(schedMatrix, exact.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, src)
		}
		for _, d := range srep.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
		if t.Failed() {
			t.Fatalf("seed %d schedule oracle diverged; program:\n%s", seed, src)
		}
	}
}

// interpOutput runs a compiled program functionally and returns its output,
// or nil on any error (including node-limit overruns) — the shape reducer
// predicates want.
func interpOutput(src string, in []byte) []byte {
	prog, err := minic.Compile("pred.mc", src, minic.Options{Optimize: true})
	if err != nil {
		return nil
	}
	res, err := interp.Run(prog, in, nil, interp.Options{MaxNodes: 1 << 22})
	if err != nil {
		return nil
	}
	return res.Output
}

// TestReducerShrinksSyntheticFailure: plant a marker statement in a large
// generated program and reduce with "output still contains the marker" as
// the failure predicate — the stand-in for a real engine divergence. The
// reducer must strip the couple hundred surrounding statements down to a
// handful while the marker survives.
func TestReducerShrinksSyntheticFailure(t *testing.T) {
	big := Generate(99, GenOptions{Helpers: 4, BodyOps: 24, Calls: 1, Loops: 1, Arrays: 1, Bytes: 1, ALU: 1, Branchy: 1})
	// Inject the failure marker right before main's final output.
	marker := "putc('!');"
	big = strings.Replace(big, "\tputc('A' + ", "\t"+marker+"\n\tputc('A' + ", 1)
	if !strings.Contains(big, marker) {
		t.Fatal("marker injection failed — generator output shape changed")
	}
	in := GenInput(5, 200)
	fails := func(src string) bool {
		return strings.Contains(string(interpOutput(src, in)), "!")
	}
	if !fails(big) {
		t.Fatal("synthetic failure does not reproduce before reduction")
	}
	before := CountStatements(big)
	reduced, err := Reduce(big, fails)
	if err != nil {
		t.Fatal(err)
	}
	after := CountStatements(reduced)
	t.Logf("reduced %d statements to %d:\n%s", before, after, reduced)
	if !fails(reduced) {
		t.Fatal("reduced program no longer reproduces the failure")
	}
	if after > 10 {
		t.Errorf("reduced program still has %d statements (want <= 10):\n%s", after, reduced)
	}
	if before <= after {
		t.Errorf("no shrinkage: %d -> %d statements", before, after)
	}
}

// TestReduceRejectsNonFailure: the reducer refuses inputs that do not
// compile or do not reproduce, instead of "reducing" them to noise.
func TestReduceRejectsNonFailure(t *testing.T) {
	if _, err := Reduce("int main() { return 0; }", func(string) bool { return false }); err == nil {
		t.Error("Reduce accepted a program that does not fail")
	}
	if _, err := Reduce("int main() { syntax error", func(string) bool { return true }); err == nil {
		t.Error("Reduce accepted a program that does not compile")
	}
}

// TestReducePreservesCompilability: every reduction result compiles, even
// under a predicate that accepts everything it is shown.
func TestReducePreservesCompilability(t *testing.T) {
	src := Generate(3, DefaultGenOptions())
	reduced, err := Reduce(src, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !compiles(reduced) {
		t.Fatalf("reduction produced a non-compiling program:\n%s", reduced)
	}
	// Under an always-true predicate the fixpoint is tiny: main alone.
	if n := CountStatements(reduced); n > 2 {
		t.Errorf("always-failing predicate left %d statements:\n%s", n, reduced)
	}
}

// TestCountStatements pins the size metric.
func TestCountStatements(t *testing.T) {
	src := `int main() {
	int i;
	for (i = 0; i < 3; i++) { putc('a'); }
	if (i > 2) putc('b'); else putc('c');
	;
	return 0;
}`
	// decl, for, inner putc, if, then-putc, else-putc, return = 7
	// (the block and the empty statement do not count).
	if n := CountStatements(src); n != 7 {
		t.Errorf("CountStatements = %d, want 7", n)
	}
	if n := CountStatements("not minic"); n != -1 {
		t.Errorf("CountStatements on garbage = %d, want -1", n)
	}
}

// TestPrepareFailedPassError: a case whose profiling or reference run
// fails reports the failing pass the way it always has, its run's error
// wrapped.
func TestPrepareFailedPassError(t *testing.T) {
	// b0: r6 = getc(0); br r6 -> b1 else b2. b1 holds a jump among its
	// body nodes, which the interpreter refuses; b2 halts.
	p := &ir.Program{MemSize: 1 << 16}
	p.Funcs = append(p.Funcs, &ir.Func{Name: "main"})
	p.AddBlock(0, &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 8, Imm: 0},
			{Op: ir.Sys, Dst: 6, A: 8, B: ir.NoReg, Imm: ir.SysGetc},
		},
		Term: ir.Node{Op: ir.Br, A: 6, Target: 1},
		Fall: 2,
	})
	p.AddBlock(0, &ir.Block{Body: []ir.Node{{Op: ir.Jmp, Target: 2}}, Term: ir.Node{Op: ir.Halt}, Fall: ir.NoBlock})
	p.AddBlock(0, &ir.Block{Term: ir.Node{Op: ir.Halt}, Fall: ir.NoBlock})
	_, runErr := interp.Run(p, []byte{1}, nil, interp.Options{})
	if runErr == nil {
		t.Fatal("the bad block ran")
	}
	for _, tc := range []struct {
		pass          string
		profIn, refIn []byte
	}{
		{"profile", []byte{1}, []byte{0}},
		{"reference", []byte{0}, []byte{1}},
	} {
		_, err := PrepareCase("bad", p, tc.profIn, tc.refIn)
		if want := "difftest: bad: " + tc.pass + " run: " + runErr.Error(); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}
