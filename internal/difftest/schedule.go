package difftest

import (
	"fmt"

	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/sched"
	"fgpsim/internal/sched/exact"
)

// The schedule oracle is the static scheduler's differential check: for
// every block of a loaded static image, the list schedule must be legal
// (sched.Validate), the exact branch-and-bound schedule must be legal, and
// the list schedule's planned length must never beat the exact one — exact
// is seeded with the list schedule, so "list < exact" means one of the
// schedulers or the shared legality contract is broken, and "exact < list"
// with Proved status is the measured optimality gap, which is fine. On top
// of the per-schedule checks it verifies the exact scheduler's own claims:
// Length measures its schedule, LowerBound never exceeds Length, and a
// Proved result has Length == LowerBound.

// ScheduleMatrix returns the static variants the schedule oracle sweeps:
// issue models from sequential to widest crossed with both block modes
// (enlargement changes block sizes drastically, which is exactly what
// stresses the packing), across two memory configurations so both hit
// latencies shape the DAG.
func ScheduleMatrix() []Variant {
	cfg := func(issue int, mem byte, bm machine.BranchMode) machine.Config {
		im, _ := machine.IssueModelByID(issue)
		mc, _ := machine.MemConfigByID(mem)
		return machine.Config{Disc: machine.Static, Issue: im, Mem: mc, Branch: bm}
	}
	return []Variant{
		{cfg(1, 'A', machine.SingleBB), false},
		{cfg(2, 'D', machine.SingleBB), false},
		{cfg(8, 'A', machine.SingleBB), false},
		{cfg(4, 'D', machine.EnlargedBB), false},
		{cfg(8, 'G', machine.EnlargedBB), false},
	}
}

// ScheduleOracle checks every block of every static variant's image
// against the exact scheduler. Infrastructure failures (load errors,
// non-static variants) return an error; contract violations land in the
// report as "schedule" divergences.
func (c *Case) ScheduleOracle(vs []Variant, o exact.Options) (*Report, error) {
	rep := &Report{Case: c}
	for _, v := range vs {
		if v.Cfg.Disc != machine.Static {
			return nil, fmt.Errorf("difftest: %s: schedule oracle needs static variants, got %s", c.Name, v)
		}
		img, err := loader.Load(c.Prog, v.Cfg, c.EF)
		if err != nil {
			return nil, fmt.Errorf("difftest: %s: load %s: %w", c.Name, v, err)
		}
		hitLat := v.Cfg.Mem.HitLatency
		for _, b := range img.Prog.Blocks {
			if b == nil {
				continue
			}
			words, ok := img.Words(b.ID)
			if !ok {
				rep.add(v, "schedule", "block b%d has no schedule", b.ID)
				continue
			}
			list := words.Schedule()
			if err := sched.Validate(b, v.Cfg.Issue, hitLat, list); err != nil {
				rep.add(v, "schedule", "block b%d: list schedule illegal: %v", b.ID, err)
				continue
			}
			listLen := sched.PlannedCycles(b, v.Cfg.Issue, hitLat, list)
			r := exact.Schedule(b, v.Cfg.Issue, hitLat, o)
			if err := sched.Validate(b, v.Cfg.Issue, hitLat, r.Schedule); err != nil {
				rep.add(v, "schedule", "block b%d: exact schedule illegal: %v", b.ID, err)
				continue
			}
			if got := sched.PlannedCycles(b, v.Cfg.Issue, hitLat, r.Schedule); got != r.Length {
				rep.add(v, "schedule", "block b%d: exact Length %d but schedule measures %d", b.ID, r.Length, got)
			}
			if r.Length > listLen {
				rep.add(v, "schedule", "block b%d: list length %d beats exact %d (%s)",
					b.ID, listLen, r.Length, r.Status)
			}
			if r.LowerBound > r.Length {
				rep.add(v, "schedule", "block b%d: lower bound %d above length %d", b.ID, r.LowerBound, r.Length)
			}
			if r.Status == exact.Proved && r.LowerBound != r.Length {
				rep.add(v, "schedule", "block b%d: proved with bound gap %d < %d", b.ID, r.LowerBound, r.Length)
			}
		}
	}
	return rep, nil
}
