package exp_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"fgpsim/internal/bench"
	"fgpsim/internal/branch"
	"fgpsim/internal/difftest"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/minic"
)

// prepareStepByStep is exp.Prepare one pass after the other: compile,
// profile on input set 1, build the enlargement file and the hints, then
// the reference run on input set 2.
func prepareStepByStep(t *testing.T, b *bench.Benchmark) *exp.Prepared {
	t.Helper()
	prog, err := minic.Compile(b.Name+".mc", b.Source, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	p1in0, p1in1 := b.Inputs(1)
	prof := interp.NewProfile()
	if _, err := interp.Run(prog, p1in0, p1in1, interp.Options{Profile: prof, MaxNodes: 200_000_000}); err != nil {
		t.Fatal(err)
	}
	p := &exp.Prepared{Bench: b, Prog: prog, Profile: prof}
	p.EF = enlarge.Build(prog, prof, enlarge.DefaultOptions())
	p.Hints = branch.HintsFromProfile(prof.Taken, prof.NotTaken)
	p.In0, p.In1 = b.Inputs(2)
	ref, err := interp.Run(prog, p.In0, p.In1, interp.Options{RecordTrace: true, MaxNodes: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	p.Trace, p.RefOutput, p.RefNodes = ref.Trace, ref.Output, ref.RetiredNodes
	return p
}

// TestPrepareMatchesStepByStep: with its passes side by side, Prepare
// prepares what the passes run one after the other do, on the paper
// benchmarks (two input sets that differ) and on a generated program
// given one input set for both passes.
func TestPrepareMatchesStepByStep(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:1] // sort
	}
	in := difftest.GenInput(2402, 40)
	benches = append(benches, &bench.Benchmark{
		Name:   "gen",
		Source: difftest.Generate(2401, difftest.DefaultGenOptions()),
		Inputs: func(int) ([]byte, []byte) { return in, nil },
	})
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			got, err := exp.Prepare(b, enlarge.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := prepareStepByStep(t, b)
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Profile", got.Profile, want.Profile},
				{"EF", got.EF, want.EF},
				{"Hints", got.Hints, want.Hints},
				{"Trace", got.Trace, want.Trace},
				{"RefNodes", got.RefNodes, want.RefNodes},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differs from the step-by-step preparation", f.name)
				}
			}
			if !bytes.Equal(got.RefOutput, want.RefOutput) || len(got.RefOutput) == 0 {
				t.Errorf("RefOutput is %d bytes, the step-by-step one %d", len(got.RefOutput), len(want.RefOutput))
			}
			if len(got.Trace) == 0 || len(got.Profile.Arcs) == 0 {
				t.Error("empty trace or profile")
			}
		})
	}
}

// TestPrepareFailedPassError: a profiling run that exceeds the node limit
// fails Prepare with the error it has always returned.
func TestPrepareFailedPassError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 200 M nodes")
	}
	b := &bench.Benchmark{
		Name:   "spin",
		Source: "int main() { while (getc(0) != 'q') {} return 0; }",
		Inputs: func(set int) ([]byte, []byte) {
			if set == 1 {
				return nil, nil // getc returns -1 for ever
			}
			return []byte("q"), nil
		},
	}
	_, err := exp.Prepare(b, enlarge.DefaultOptions())
	if want := "exp: spin profile run: interp: node limit exceeded"; err == nil || err.Error() != want || !errors.Is(err, interp.ErrNodeLimit) {
		t.Fatalf("err = %v, want %q wrapping interp.ErrNodeLimit", err, want)
	}
}
