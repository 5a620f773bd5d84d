package interp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fgpsim/internal/bench"
	"fgpsim/internal/ir"
)

// TestProfileCoincidingArcs: a branch whose target is also its
// fall-through counts its outcomes apart but has one arc holding both,
// and a profile passed to several runs accumulates their counts.
func TestProfileCoincidingArcs(t *testing.T) {
	p := &ir.Program{MemSize: 1 << 16}
	p.Funcs = append(p.Funcs, &ir.Func{Name: "main"})
	// b0: r6 = getc(0); br r6 >= 0 -> b1 else b2
	p.AddBlock(0, &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 8, Imm: 0},
			{Op: ir.Sys, Dst: 6, A: 8, B: ir.NoReg, Imm: ir.SysGetc},
			{Op: ir.Ge, Dst: 7, A: 6, B: 8},
		},
		Term: ir.Node{Op: ir.Br, A: 7, Target: 1},
		Fall: 2,
	})
	// b1: br r6 & 1 -> b0 else b0
	p.AddBlock(0, &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 9, Imm: 1},
			{Op: ir.And, Dst: 10, A: 6, B: 9},
		},
		Term: ir.Node{Op: ir.Br, A: 10, Target: 0},
		Fall: 0,
	})
	p.AddBlock(0, &ir.Block{Term: ir.Node{Op: ir.Halt}, Fall: ir.NoBlock})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// after k runs over the same input
	want := func(k int64) *Profile {
		return &Profile{
			Arcs:     map[Arc]int64{{0, 1}: 3 * k, {0, 2}: k, {1, 0}: 3 * k},
			Taken:    map[ir.BlockID]int64{0: 3 * k, 1: 2 * k},
			NotTaken: map[ir.BlockID]int64{0: k, 1: k},
			Blocks:   map[ir.BlockID]int64{0: 4 * k, 1: 3 * k, 2: k},
		}
	}
	prof := NewProfile()
	for k := int64(1); k <= 2; k++ {
		if _, err := Run(p, []byte{1, 2, 3}, nil, Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prof, want(k)) {
			t.Fatalf("after %d runs: profile = %+v, want %+v", k, prof, want(k))
		}
	}
}

// mapProfile profiles a run block by block, counting into the maps the
// way the interpreter did before it kept per-block counters: every
// completed block, and each conditional branch's outcome and the arc it
// took.
func mapProfile(t *testing.T, p *ir.Program, in0, in1 []byte) *Profile {
	t.Helper()
	prof := NewProfile()
	m := newMachine(p, in0, in1, Options{})
	for cur := p.Func(p.Entry).Entry; ; {
		retired := m.res.RetiredBlocks
		next, halted, err := m.execBlock(cur)
		if err != nil {
			t.Fatal(err)
		}
		if m.res.RetiredBlocks > retired { // not rolled back by an assert
			prof.Blocks[cur]++
			if b := p.Block(cur); b.Term.Op == ir.Br {
				if m.regs[b.Term.A] != 0 {
					prof.Taken[cur]++
				} else {
					prof.NotTaken[cur]++
				}
				prof.Arcs[Arc{cur, next}]++
			}
		}
		if halted {
			return prof
		}
		cur = next
	}
}

// TestProfileMatchesMapCounts: on each paper benchmark's profiling input,
// the counters Run folds into its profile equal block-by-block map counts.
func TestProfileMatchesMapCounts(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			in0, in1 := b.Inputs(1)
			prof := NewProfile()
			if _, err := Run(p, in0, in1, Options{Profile: prof}); err != nil {
				t.Fatal(err)
			}
			if want := mapProfile(t, p, in0, in1); !reflect.DeepEqual(prof, want) {
				t.Errorf("folded profile differs from block-by-block map counts")
			}
		})
	}
}

// TestPassesErrors: a failing pass's error names the pass and wraps the
// run's error; when both fail, the profiling pass's error is returned.
func TestPassesErrors(t *testing.T) {
	p := makeProgram()
	short, long := []byte{1}, []byte("0123456789")
	for _, tc := range []struct {
		name          string
		profIn, refIn []byte
		want          string
	}{
		{"profile", long, short, "profile run: " + ErrNodeLimit.Error()},
		{"reference", short, long, "reference run: " + ErrNodeLimit.Error()},
		{"both", long, []byte("9876543210"), "profile run: " + ErrNodeLimit.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof, ref, err := Passes(p, tc.profIn, nil, tc.refIn, nil, 20)
			if err == nil || err.Error() != tc.want || !errors.Is(err, ErrNodeLimit) {
				t.Fatalf("err = %v, want %q wrapping ErrNodeLimit", err, tc.want)
			}
			if prof != nil || ref != nil {
				t.Error("a failed Passes returned a profile or a result")
			}
		})
	}
}

// panicProgram jumps to a block that does not exist when its first input
// byte is 1 (block 100) or 2 (block 200), and halts otherwise.
func panicProgram() *ir.Program {
	p := &ir.Program{MemSize: 1 << 16}
	p.Funcs = append(p.Funcs, &ir.Func{Name: "main"})
	test := func(v int64, bad, next ir.BlockID) {
		p.AddBlock(0, &ir.Block{
			Body: []ir.Node{
				{Op: ir.Const, Dst: 8, Imm: v},
				{Op: ir.Eq, Dst: 7, A: 6, B: 8},
			},
			Term: ir.Node{Op: ir.Br, A: 7, Target: next},
			Fall: next + 1,
		})
		p.AddBlock(0, &ir.Block{Term: ir.Node{Op: ir.Jmp, Target: bad}, Fall: ir.NoBlock})
	}
	// b0: r6 = getc(0)
	p.AddBlock(0, &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 9, Imm: 0},
			{Op: ir.Sys, Dst: 6, A: 9, B: ir.NoReg, Imm: ir.SysGetc},
		},
		Term: ir.Node{Op: ir.Jmp, Target: 1},
		Fall: ir.NoBlock,
	})
	test(1, 100, 2) // b1 (b2: jmp 100), falls to b3
	test(2, 200, 4) // b3 (b4: jmp 200), falls to b5
	p.AddBlock(0, &ir.Block{Term: ir.Node{Op: ir.Halt}, Fall: ir.NoBlock})
	return p
}

// TestPassesRepanics: a pass that panics, on whichever goroutine it ran,
// panics on the caller's goroutine, the reference pass's panic carrying
// the stack of the block that failed; when both panic, the profiling
// pass's panic is raised.
func TestPassesRepanics(t *testing.T) {
	p := panicProgram()
	passes := func(profIn, refIn []byte) (recovered any) {
		defer func() { recovered = recover() }()
		if _, _, err := Passes(p, profIn, nil, refIn, nil, 0); err != nil {
			t.Error(err)
		}
		return nil
	}
	for _, tc := range []struct {
		name          string
		profIn, refIn []byte
		want          []string // in the panic's message; none for no panic
	}{
		{"profile", []byte{1}, []byte{0}, []string{"[100]"}},
		{"reference", []byte{0}, []byte{2}, []string{"[200]", "interp.(*machine).execBlock"}},
		{"both", []byte{1}, []byte{2}, []string{"[100]"}},
		{"none", []byte{0}, []byte{3}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := passes(tc.profIn, tc.refIn)
			if tc.want == nil && got != nil {
				t.Fatalf("Passes panicked: %v", got)
			}
			for _, w := range tc.want {
				if !strings.Contains(fmt.Sprint(got), w) {
					t.Fatalf("recovered %v, want a panic mentioning %s", got, w)
				}
			}
		})
	}
}
