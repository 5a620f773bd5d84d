package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/branch"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
	"fgpsim/internal/stats"
)

// layers times a traced run from outside the layers: it replays
// exp.Prepare and exp.Prepared.RunContext step by step, calling each
// layer's own entry point under a timer. The checks against the plain pass
// (checkReplayPrepared, checkReplayRuns) catch a replay that drifted from
// the sequence exp itself runs.
type layers struct {
	compile, profile, trace, enlarge time.Duration

	resolve, load   time.Duration
	images          int
	static, dynamic time.Duration
	staticCycles    int64
	dynamicCycles   int64
	mallocs         uint64
	sum             totals
}

// prepare is exp.Prepare, one timed step at a time.
func (l *layers) prepare(b *bench.Benchmark) (*exp.Prepared, error) {
	start := time.Now()
	prog, err := minic.Compile(b.Name+".mc", b.Source, minic.Options{Optimize: true})
	l.compile += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", b.Name, err)
	}

	p1in0, p1in1 := b.Inputs(1)
	prof := interp.NewProfile()
	start = time.Now()
	_, err = interp.Run(prog, p1in0, p1in1, interp.Options{Profile: prof, MaxNodes: 200_000_000})
	l.profile += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: profile run: %w", b.Name, err)
	}

	start = time.Now()
	ef := enlarge.Build(prog, prof, enlarge.DefaultOptions())
	hints := branch.HintsFromProfile(prof.Taken, prof.NotTaken)
	l.enlarge += time.Since(start)

	in0, in1 := b.Inputs(2)
	start = time.Now()
	ref, err := interp.Run(prog, in0, in1, interp.Options{RecordTrace: true, MaxNodes: 200_000_000})
	l.trace += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", b.Name, err)
	}
	return &exp.Prepared{Bench: b, Prog: prog, Profile: prof, EF: ef, Hints: hints,
		In0: in0, In1: in1, Trace: ref.Trace, RefOutput: ref.Output, RefNodes: ref.RetiredNodes}, nil
}

// cells runs every (benchmark, configuration) cell the way
// exp.Prepared.RunContext does — resolve the image, run the engine, check
// the output — timing the image resolution, the loader calls inside it
// (a cache miss hands back a program copy not seen before), and the
// engine, with the allocation count around each engine call.
func (l *layers) cells(ctx context.Context, ps []*exp.Prepared, cfgs []machine.Config) (map[exp.Key]*stats.Run, time.Duration, error) {
	runs := make(map[exp.Key]*stats.Run, len(ps)*len(cfgs))
	seen := make(map[*ir.Program]bool)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	wall := time.Now()
	for _, p := range ps {
		for _, cfg := range cfgs {
			start := time.Now()
			img, deg, err := p.ResolveImage(cfg)
			d := time.Since(start)
			l.resolve += d
			if err != nil {
				return nil, 0, err
			}
			if !seen[img.Prog] {
				seen[img.Prog] = true
				l.images++
				l.load += d
			}

			runtime.ReadMemStats(&ms0)
			start = time.Now()
			res, err := core.RunContext(ctx, img, p.In0, p.In1, p.Trace, p.Hints, core.Limits{})
			d = time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, 0, fmt.Errorf("%s %s: %w", p.Bench.Name, cfg, err)
			}
			l.mallocs += ms1.Mallocs - ms0.Mallocs
			if cfg.Disc == machine.Static {
				l.static += d
				l.staticCycles += res.Stats.Cycles
			} else {
				l.dynamic += d
				l.dynamicCycles += res.Stats.Cycles
			}
			if !bytes.Equal(res.Output, p.RefOutput) {
				return nil, 0, fmt.Errorf("%s %s: simulated output differs from reference", p.Bench.Name, cfg)
			}
			res.Stats.Work = p.RefNodes
			res.Stats.EFDegradations = deg
			runs[exp.KeyOf(p.Bench.Name, cfg)] = res.Stats
			l.sum.add(res.Stats)
		}
	}
	return runs, time.Since(wall), nil
}

// report sets the replay's per-layer metrics.
func (l *layers) report(r *runner) {
	r.set("minic.compile_ms", ms(l.compile), "ms")
	r.set("interp.profile_ms", ms(l.profile), "ms")
	r.set("interp.trace_ms", ms(l.trace), "ms")
	r.set("enlarge.build_ms", ms(l.enlarge), "ms")
	r.set("exp.resolve_image_ms", ms(l.resolve), "ms")
	r.set("loader.load_ms", ms(l.load), "ms")
	r.set("loader.images", float64(l.images), "count")
	r.set("core.static_ms", ms(l.static), "ms")
	r.set("core.dynamic_ms", ms(l.dynamic), "ms")
	r.set("core.static_mcycles_per_s", mcps(l.staticCycles, l.static), "Mcycles/s")
	r.set("core.dynamic_mcycles_per_s", mcps(l.dynamicCycles, l.dynamic), "Mcycles/s")
	r.set("core.allocs_per_kcycle", float64(l.mallocs)/(float64(l.sum.cycles)/1000), "allocs/kcycle")
	r.set("core.sim_cycles", float64(l.sum.cycles), "cycles")
	r.set("core.retired_nodes", float64(l.sum.retired), "nodes")
	r.set("core.useful_ratio", float64(l.sum.retired)/float64(l.sum.executed), "ratio")
	r.set("exp.cells", float64(l.sum.cells), "count")
}

// mcps is simulated megacycles per host second (0 when nothing ran).
func mcps(cycles int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(cycles) / d.Seconds() / 1e6
}

// checkReplayPrepared compares the step-by-step preparation with
// exp.Prepare's.
func checkReplayPrepared(r *runner, name string, want, got []*exp.Prepared) {
	for i := range want {
		w, g := want[i], got[i]
		if !bytes.Equal(w.RefOutput, g.RefOutput) || w.RefNodes != g.RefNodes || len(w.Trace) != len(g.Trace) {
			r.fail(0, "%s: %s: replayed preparation differs from exp.Prepare", name, w.Bench.Name)
		}
	}
}

// checkReplayRuns compares the replayed cells with the grid's results.
func checkReplayRuns(r *runner, name string, want, got map[exp.Key]*stats.Run) {
	if len(want) != len(got) {
		r.fail(0, "%s: replay ran %d cells, the grid %d", name, len(got), len(want))
		return
	}
	for k, w := range want {
		if exp.DigestStats(w) != exp.DigestStats(got[k]) {
			r.fail(0, "%s: replayed cell %v differs from the grid's", name, k)
		}
	}
}

// gcDelta is the Go runtime's collection work over an interval.
type gcDelta struct {
	cycles uint32
	pause  time.Duration
}

type gcStart runtime.MemStats

func startGC() *gcStart {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*gcStart)(&m)
}

func (s *gcStart) stop() gcDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcDelta{cycles: m.NumGC - s.NumGC, pause: time.Duration(m.PauseTotalNs - s.PauseTotalNs)}
}

func (g gcDelta) report(r *runner) {
	r.set("go.gc_cycles", float64(g.cycles), "count")
	r.set("go.gc_pause_ms", ms(g.pause), "ms")
}
