package loader_test

import (
	"testing"

	"fgpsim/internal/enlarge"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
)

// badFile wraps chains into an enlargement file.
func badFile(chains ...enlarge.Chain) *enlarge.File {
	return &enlarge.File{Chains: chains, Options: enlarge.DefaultOptions()}
}

// TestLoaderRejectsMalformedChains: chains that do not follow real arcs of
// the program must be refused, not silently miscompiled.
func TestLoaderRejectsMalformedChains(t *testing.T) {
	p := compile(t)
	cfg := cfg(machine.Dyn4, machine.EnlargedBB)

	// Find a block ending in a conditional branch and one ending in a call.
	var brBlock, callBlock *ir.Block
	for _, b := range p.Blocks {
		switch b.Term.Op {
		case ir.Br:
			if brBlock == nil {
				brBlock = b
			}
		case ir.Call:
			if callBlock == nil {
				callBlock = b
			}
		}
	}
	if brBlock == nil || callBlock == nil {
		t.Fatal("test program lacks needed block shapes")
	}

	// A chain step that follows neither arm of the branch.
	notASucc := brBlock.ID // a block is never its own... unless a self loop
	if brBlock.Term.Target == notASucc || brBlock.Fall == notASucc {
		notASucc = callBlock.ID
	}
	wrongArc := badFile(enlarge.Chain{
		Entry: brBlock.ID,
		Steps: []enlarge.Step{
			{Block: brBlock.ID, TakenToNext: true},
			{Block: notASucc},
		},
	})
	if brBlock.Term.Target != notASucc {
		if _, err := loader.Load(p, cfg, wrongArc); err == nil {
			t.Error("chain through a non-arc was accepted")
		}
	}

	// A chain extending through a call terminator.
	throughCall := badFile(enlarge.Chain{
		Entry: callBlock.ID,
		Steps: []enlarge.Step{
			{Block: callBlock.ID, TakenToNext: true},
			{Block: callBlock.Fall},
		},
	})
	if _, err := loader.Load(p, cfg, throughCall); err == nil {
		t.Error("chain through a call terminator was accepted")
	}
}

// TestLoaderIgnoresTrivialChains: single-step chains perform no enlargement.
func TestLoaderIgnoresTrivialChains(t *testing.T) {
	p := compile(t)
	f := badFile(enlarge.Chain{Entry: 0, Steps: []enlarge.Step{{Block: 0}}})
	img, err := loader.Load(p, cfg(machine.Dyn4, machine.EnlargedBB), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.EntryMap) != 0 {
		t.Error("trivial chain materialized something")
	}
}

// TestStaticEnlargedBlocksAreScheduled: materialized blocks must get word
// schedules on static machines.
func TestStaticEnlargedBlocksAreScheduled(t *testing.T) {
	p := compile(t)
	ef := profileAndEnlarge(t, p, []byte("schedule me please"))
	img, err := loader.Load(p, cfg(machine.Static, machine.EnlargedBB), ef)
	if err != nil {
		t.Fatal(err)
	}
	for _, enl := range img.EntryMap {
		ws, ok := img.Words(enl)
		if !ok {
			t.Errorf("materialized block %d has no schedule", enl)
		}
		b := img.Prog.Block(enl)
		n := 0
		for i := 0; i < ws.Len(); i++ {
			n += len(ws.Word(i))
		}
		if n != len(b.Body)+1 {
			t.Errorf("block %d schedule covers %d of %d nodes", enl, n, len(b.Body)+1)
		}
	}
}
