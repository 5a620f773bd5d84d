package exp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
)

func gridCfgs() []machine.Config {
	im8, _ := machine.IssueModelByID(8)
	mcA, _ := machine.MemConfigByID('A')
	return []machine.Config{
		{Disc: machine.Static, Issue: im8, Mem: mcA, Branch: machine.SingleBB},
		{Disc: machine.Dyn4, Issue: im8, Mem: mcA, Branch: machine.SingleBB},
		{Disc: machine.Dyn4, Issue: im8, Mem: mcA, Branch: machine.EnlargedBB},
		{Disc: machine.Dyn256, Issue: im8, Mem: mcA, Branch: machine.SingleBB},
	}
}

// TestGridQuarantinesFailures: cells that keep failing are quarantined with
// a typed *exp.CellError while the sweep completes, and the returned first
// error is the failed cell with the lowest job index no matter how many
// workers race — the property that makes sweep failures reproducible.
func TestGridQuarantinesFailures(t *testing.T) {
	p := prepareOne(t, "compress")
	cfgs := gridCfgs()
	for _, workers := range []int{1, 8} {
		res, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
			Workers: workers,
			Retries: 1,
			Limits:  core.Limits{MaxCycles: 1}, // every cell blows its budget
		})
		var ce *exp.CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v, want *exp.CellError", workers, err)
		}
		if want := exp.KeyOf("compress", cfgs[0]); ce.Key != want {
			t.Errorf("workers=%d: first error is cell %+v, want lowest-index cell %+v", workers, ce.Key, want)
		}
		if ce.Attempts != 2 {
			t.Errorf("workers=%d: first error after %d attempts, want 2 (1 retry)", workers, ce.Attempts)
		}
		if len(res.Failed) != len(cfgs) {
			t.Errorf("workers=%d: %d quarantined cells, want %d", workers, len(res.Failed), len(cfgs))
		}
		if len(res.Runs) != 0 {
			t.Errorf("workers=%d: %d cells succeeded with a 1-cycle budget", workers, len(res.Runs))
		}
		var cl *core.CycleLimitError
		if !errors.As(ce, &cl) {
			t.Errorf("workers=%d: cell error does not unwrap to the cycle limit: %v", workers, ce)
		}
	}
}

// TestGridRecoversPanics: a panic inside the engine stack becomes a
// quarantined cell error (not retried — panics are deterministic) and the
// rest of the sweep still completes.
func TestGridRecoversPanics(t *testing.T) {
	p := prepareOne(t, "compress")
	cfgs := gridCfgs()
	res, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Retries: 3,
		Limits:  core.Limits{Fault: func(core.FaultPort) { panic("injected test panic") }},
	})
	var ce *exp.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *exp.CellError", err)
	}
	if !ce.Panicked {
		t.Error("cell error not marked as panicked")
	}
	if ce.Attempts != 1 {
		t.Errorf("panicked cell ran %d attempts, want 1 (no retry)", ce.Attempts)
	}
	// The static cell ignores the fault hook and must have succeeded.
	if res.Get(exp.KeyOf("compress", cfgs[0])) == nil {
		t.Error("static cell should survive a dynamic-engine panic hook")
	}
	if got := len(res.Failed); got != len(cfgs)-1 {
		t.Errorf("%d quarantined cells, want %d (every dynamic cell)", got, len(cfgs)-1)
	}
}

// TestGridRetriesTransientFailures: a cell that fails once and then
// succeeds is retried to success and does not surface an error.
func TestGridRetriesTransientFailures(t *testing.T) {
	p := prepareOne(t, "compress")
	im8, _ := machine.IssueModelByID(8)
	mcA, _ := machine.MemConfigByID('A')
	cfgs := []machine.Config{{Disc: machine.Dyn4, Issue: im8, Mem: mcA, Branch: machine.SingleBB}}
	var first atomic.Bool
	first.Store(true)
	hook := func(fp core.FaultPort) {
		// Poison only the first attempt: a machine check is retryable.
		if first.CompareAndSwap(true, false) {
			fp.CorruptArch(0x1234)
		}
	}
	res, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Retries: 2,
		Limits:  core.Limits{Fault: hook},
	})
	if err != nil {
		t.Fatalf("transient failure was not retried to success: %v", err)
	}
	if res.Get(exp.KeyOf("compress", cfgs[0])) == nil {
		t.Fatal("cell missing after successful retry")
	}
	if len(res.Failed) != 0 {
		t.Errorf("%d quarantined cells, want 0", len(res.Failed))
	}
}

// TestGridJournalResume: a sweep journals completed cells; a second sweep
// over the same grid restores every cell from the journal instead of
// re-running (proved by giving the rerun an impossible cycle budget) and
// reproduces identical statistics.
func TestGridJournalResume(t *testing.T) {
	p := prepareOne(t, "compress")
	cfgs := gridCfgs()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	res1, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the tail of a killed sweep: a torn, half-written line.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":{"Bench":"compress","Disc`)
	f.Close()

	restored := 0
	res2, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Journal:  journal,
		Progress: func(done, total int) { restored = done },
		Limits:   core.Limits{MaxCycles: 1}, // any re-run cell would fail
	})
	if err != nil {
		t.Fatalf("resumed sweep re-ran cells instead of restoring them: %v", err)
	}
	if restored != len(cfgs) {
		t.Errorf("progress reported %d restored cells, want %d", restored, len(cfgs))
	}
	for _, cfg := range cfgs {
		k := exp.KeyOf("compress", cfg)
		a, b := res1.Get(k), res2.Get(k)
		if a == nil || b == nil {
			t.Fatalf("missing cell %s", cfg)
		}
		if a.Cycles != b.Cycles || a.RetiredNodes != b.RetiredNodes || a.ExecutedNodes != b.ExecutedNodes {
			t.Errorf("%s: restored stats differ: cycles %d vs %d, retired %d vs %d",
				cfg, a.Cycles, b.Cycles, a.RetiredNodes, b.RetiredNodes)
		}
		if b.BlockSizes == nil {
			t.Errorf("%s: restored stats lost the block-size histogram map", cfg)
		}
	}
}

// TestRunContextDegradesCorruptEnlargement: a structurally corrupt
// enlargement file must not fail the run — the enlarged configuration
// degrades to its single-block equivalent, the output still verifies, and
// the degradation is counted. The failed translation is remembered, so
// every later enlarged or perfect cell on the Prepared degrades without
// materializing the file again.
func TestRunContextDegradesCorruptEnlargement(t *testing.T) {
	p := prepareOne(t, "compress")
	p.EF = &enlarge.File{Chains: []enlarge.Chain{{
		Entry: ir.BlockID(1 << 30),
		Steps: []enlarge.Step{{Block: ir.BlockID(1 << 30)}, {Block: ir.BlockID(1<<30 + 1)}},
	}}}
	im4, _ := machine.IssueModelByID(4)
	im8, _ := machine.IssueModelByID(8)
	mcA, _ := machine.MemConfigByID('A')
	cfgs := []machine.Config{
		{Disc: machine.Dyn4, Issue: im8, Mem: mcA, Branch: machine.EnlargedBB},
		{Disc: machine.Dyn4, Issue: im8, Mem: mcA, Branch: machine.Perfect},
		{Disc: machine.Static, Issue: im8, Mem: mcA, Branch: machine.EnlargedBB},
		{Disc: machine.Static, Issue: im4, Mem: mcA, Branch: machine.EnlargedBB},
		{Disc: machine.Dyn1, Issue: im4, Mem: mcA, Branch: machine.EnlargedBB},
		{Disc: machine.Dyn1, Issue: im4, Mem: mcA, Branch: machine.Perfect},
	}
	var failed error
	for _, cfg := range cfgs {
		s, err := p.RunContext(context.Background(), cfg, core.Limits{})
		if err != nil {
			t.Fatalf("%s: corrupt enlargement failed the run instead of degrading: %v", cfg, err)
		}
		if s.EFDegradations != 1 {
			t.Errorf("%s: EFDegradations = %d, want 1", cfg, s.EFDegradations)
		}
		if s.RetiredNodes == 0 {
			t.Errorf("%s: degraded run retired nothing", cfg)
		}
		single, enlarged := exp.TranslationErrs(p)
		if single != nil {
			t.Fatalf("%s: single-block translation failed: %v", cfg, single)
		}
		var be *loader.BadEnlargementError
		if !errors.As(enlarged, &be) {
			t.Fatalf("%s: cached enlarged translation error = %v, want *loader.BadEnlargementError", cfg, enlarged)
		}
		if failed == nil {
			failed = enlarged
		} else if enlarged != failed {
			t.Errorf("%s: the enlargement file was materialized again", cfg)
		}
	}
}

// TestGridJournalSpecGuard: a journal is keyed by the sweep's SpecHash.
// Resuming with the identical spec restores cells; resuming with a
// different grid (here: a different configuration list) is refused with a
// typed *exp.StaleJournalError instead of silently seeding wrong cells.
func TestGridJournalSpecGuard(t *testing.T) {
	p := prepareOne(t, "compress")
	cfgs := gridCfgs()
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{Journal: journal}); err != nil {
		t.Fatal(err)
	}

	// Accept path: the same spec resumes without re-running anything.
	res, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Journal: journal,
		Limits:  core.Limits{MaxCycles: 1}, // any re-run cell would fail
	})
	if err != nil {
		t.Fatalf("same-spec resume: %v", err)
	}
	if len(res.Runs) != len(cfgs) {
		t.Fatalf("same-spec resume restored %d cells, want %d", len(res.Runs), len(cfgs))
	}

	// Reject path: a different configuration list is a different sweep.
	_, err = exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs[:1], exp.GridOptions{Journal: journal})
	var se *exp.StaleJournalError
	if !errors.As(err, &se) {
		t.Fatalf("different-spec resume: err = %v, want *exp.StaleJournalError", err)
	}
	if se.Path != journal || se.Want == se.Got {
		t.Errorf("stale error fields: %+v", se)
	}
}

// TestGridPreemptAndResume: with checkpoints armed, raising Preempt makes
// in-flight cells park their progress in snapshots and the sweep return a
// *exp.SweepPreemptedError; re-running the same sweep with the flag cleared
// resumes from the snapshots and finishes with statistics identical to a
// cadence-armed sweep that was never preempted (and cleans its snapshots
// up).
func TestGridPreemptAndResume(t *testing.T) {
	p := prepareOne(t, "compress")
	cfgs := gridCfgs()
	dir := t.TempDir()
	baseDir, resDir := filepath.Join(dir, "base"), filepath.Join(dir, "res")
	os.MkdirAll(baseDir, 0o755)
	os.MkdirAll(resDir, 0o755)
	const every = 5000

	// Baseline: cadence-armed, never preempted.
	base, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		CheckpointEvery: every, SnapshotDir: baseDir,
	})
	if err != nil {
		t.Fatal(err)
	}

	var preempt atomic.Bool
	preempt.Store(true)
	_, err = exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Workers: 2, CheckpointEvery: every, SnapshotDir: resDir, Preempt: &preempt,
	})
	var pe *exp.SweepPreemptedError
	if !errors.As(err, &pe) {
		t.Fatalf("preempted sweep: err = %v, want *exp.SweepPreemptedError", err)
	}
	if pe.Cells == 0 {
		t.Fatal("preempted sweep reported zero preempted cells")
	}
	snaps, _ := filepath.Glob(filepath.Join(resDir, "*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot files parked by the preempted cells")
	}

	preempt.Store(false)
	resumed, err := exp.GridContext(context.Background(), []*exp.Prepared{p}, cfgs, exp.GridOptions{
		Workers: 2, CheckpointEvery: every, SnapshotDir: resDir, Preempt: &preempt,
	})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for _, cfg := range cfgs {
		k := exp.KeyOf("compress", cfg)
		a, b := base.Get(k), resumed.Get(k)
		if a == nil || b == nil {
			t.Fatalf("missing cell %s", cfg)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: resumed stats differ from uninterrupted cadence run:\nbase    %+v\nresumed %+v", cfg, a, b)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(resDir, "*.snap*")); len(left) != 0 {
		t.Errorf("completed sweep left snapshot files behind: %v", left)
	}
}
