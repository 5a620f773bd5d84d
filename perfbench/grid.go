package main

import (
	"context"
	"embed"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// pinned holds the expected tables of the full-size grid workloads: the
// output of "figures -bench sort -workers 1 -quiet" and "figures -fig 7
// -bench sort,grep -workers 1 -quiet" (cmd/figures).
//
//go:embed testdata/*.txt
var pinned embed.FS

// gridWorkload is a local sweep: exp.GridContext over a configuration set
// and a fixed benchmark subset, with one grid worker and the cmd/figures
// defaults (two retries, no journal, no batching).
type gridWorkload struct {
	name    string
	benches []string
	cfgs    []machine.Config
	render  func(*exp.Results, []string) string
	pin     string // testdata file the rendered tables must equal ("" = unchecked)
}

// figuresWorkload is what a user of the reproduction waits for: every
// configuration behind Figures 2-6, so every discipline runs, the static
// engine included, and static images (keyed per issue model and hit
// latency) keep the loader, the list scheduler and the image cache busy.
func figuresWorkload(toy bool) gridWorkload {
	w := gridWorkload{
		name:    "figures",
		benches: []string{"sort"},
		cfgs:    exp.FigureConfigs(),
		render:  figureTables,
		pin:     "figures.txt",
	}
	if toy {
		w.cfgs, w.pin = every(w.cfgs, 19), ""
	}
	return w
}

// deepWindowWorkload is the window-depth sweep: Dyn256 at windows 1-256
// under both predictors and block modes. Each benchmark loads two images,
// so nearly all the time is the dynamic engine's issue, wire and squash.
func deepWindowWorkload(toy bool) gridWorkload {
	w := gridWorkload{
		name:    "deep-window",
		benches: []string{"sort", "grep"},
		cfgs:    exp.WindowConfigs(),
		render:  windowTable,
		pin:     "deep-window.txt",
	}
	if toy {
		w.benches, w.cfgs, w.pin = []string{"sort"}, every(w.cfgs, 9), ""
	}
	return w
}

// figureTables renders Figures 2-6 exactly as cmd/figures prints them.
func figureTables(r *exp.Results, names []string) string {
	var sb strings.Builder
	for _, f := range []func(*exp.Results, []string) string{exp.Figure2, exp.Figure3, exp.Figure4, exp.Figure5, exp.Figure6} {
		sb.WriteString(f(r, names))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// windowTable renders the window-depth figure exactly as cmd/figures -fig 7
// prints it.
func windowTable(r *exp.Results, names []string) string {
	return exp.FigureWindow(r, names) + "\n"
}

// every returns every k-th element of cfgs.
func every(cfgs []machine.Config, k int) []machine.Config {
	var out []machine.Config
	for i := 0; i < len(cfgs); i += k {
		out = append(out, cfgs[i])
	}
	return out
}

// prepareAll runs exp.Prepare on each named benchmark. Fresh bench values
// mean a fresh compile, and fresh Prepared values an empty image cache.
func prepareAll(names []string) ([]*exp.Prepared, error) {
	var ps []*exp.Prepared
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		p, err := exp.Prepare(b, enlarge.DefaultOptions())
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// totals are a pass's simulated counts; they must repeat exactly.
type totals struct {
	cells                     int
	cycles, retired, executed int64
}

func (t *totals) add(s *stats.Run) {
	t.cells++
	t.cycles += s.Cycles
	t.retired += s.RetiredNodes
	t.executed += s.ExecutedNodes
}

func (t totals) String() string {
	return fmt.Sprintf("%d cells, %d cycles, %d retired, %d executed nodes", t.cells, t.cycles, t.retired, t.executed)
}

// setupReps is the minimum number of set-up samples a run takes; set-up
// is short, so its median needs several. They are taken setupBatch at a
// time, one batch before each pass (the pass's own preparation among
// them), so the median spans the run rather than one moment of it.
const (
	setupReps  = 7
	setupBatch = 3
)

// gridPass is one timed exp.GridContext pass and its outcome.
type gridPass struct {
	wall  time.Duration // from the call of exp.GridContext to its return
	calib time.Duration // the part of wall spent calibrating
	res   *exp.Results
	err   error
	cells []time.Duration // per-cell wall clock from the grid's Observer
	gc    gcDelta
}

// timed is the pass's time: its wall clock without the calibration.
func (p gridPass) timed() time.Duration { return p.wall - p.calib }

// runGridPass runs one sweep over freshly prepared benchmarks; with a
// non-nil hs, the host-speed kernel is sampled after every cell.
func runGridPass(ctx context.Context, ps []*exp.Prepared, cfgs []machine.Config, hs *hostSpeed) gridPass {
	var pass gridPass
	opts := exp.GridOptions{Workers: 1, Retries: 2}
	// One worker, so the Observer is never called concurrently.
	opts.Observer = func(o exp.CellOutcome) {
		pass.cells = append(pass.cells, o.Duration)
		if hs != nil {
			start := time.Now()
			hs.sample()
			pass.calib += time.Since(start)
		}
	}
	runtime.GC()
	g := startGC()
	start := time.Now()
	pass.res, pass.err = exp.GridContext(ctx, ps, cfgs, opts)
	pass.wall = time.Since(start)
	pass.gc = g.stop()
	return pass
}

// checkGridPass verifies one pass: every cell settled, counts equal to the
// first pass's, and the rendered tables equal to the pinned copy.
func checkGridPass(r *runner, w gridWorkload, ps []*exp.Prepared, cfgs []machine.Config, pass gridPass, first *totals) totals {
	want := len(ps) * len(cfgs)
	r.attempt(want)
	var t totals
	if pass.res != nil {
		for _, s := range pass.res.Runs {
			t.add(s)
		}
	}
	switch {
	case pass.err != nil:
		r.fail(want-t.cells, "%s: sweep: %v", w.name, pass.err)
		return t
	case t.cells != want:
		r.fail(want-t.cells, "%s: %d of %d cells settled", w.name, t.cells, want)
		return t
	}
	if first.cells == 0 {
		*first = t
	} else if t != *first {
		r.fail(want, "%s: pass counts %v differ from the first pass's %v", w.name, t, *first)
	}
	if w.pin != "" {
		got := w.render(pass.res, exp.BenchNames(ps))
		pin, err := pinned.ReadFile("testdata/" + w.pin)
		if err != nil || got != string(pin) {
			r.fail(want, "%s: rendered tables differ from testdata/%s", w.name, w.pin)
		}
	}
	return t
}

// runGrid drives the figures and deep-window workloads. Each pass is timed
// by its wall clock without the calibration and scaled to the reference
// host speed by the kernel times of that pass (hostspeed.go); the rates
// reported are the medians of the passes' scaled rates. The set-up median
// is scaled by the kernel times of the whole run.
func runGrid(ctx context.Context, r *runner, w gridWorkload) error {
	cfgs := w.cfgs
	var setup []float64
	prepare := func() ([]*exp.Prepared, error) {
		runtime.GC()
		start := time.Now()
		ps, err := prepareAll(w.benches)
		setup = append(setup, time.Since(start).Seconds())
		return ps, err
	}
	if r.opts.trace {
		return traceGrid(ctx, r, w, cfgs, prepare)
	}
	// sample takes n set-up samples whose preparations go unused.
	sample := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := prepare(); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		first                        totals
		elapsed                      time.Duration
		rawRate, cellRate, cycleRate []float64
		hs                           = newHostSpeed()
	)
	for pass := 0; pass == 0 || elapsed.Seconds() < r.opts.seconds; pass++ {
		if err := sample(setupBatch - 1); err != nil {
			return err
		}
		ps, err := prepare()
		if err != nil {
			return err
		}
		k := hs.mark()
		p := runGridPass(ctx, ps, cfgs, hs)
		elapsed += p.timed()
		t := checkGridPass(r, w, ps, cfgs, p, &first)
		scaled := p.timed().Seconds() * hs.scaleSince(k)
		rawRate = append(rawRate, float64(t.cells)/p.timed().Seconds())
		cellRate = append(cellRate, float64(t.cells)/scaled)
		cycleRate = append(cycleRate, float64(t.cycles)/scaled/1e6)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if err := sample(setupReps - len(setup)); err != nil {
		return err
	}
	r.counts = first
	scale := hs.scale()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v per pass; %d passes in %s; unscaled %.4g..%.4g cells/s; scaled %.4g..%.4g; host scale %.3f\n",
		w.name, first, len(cellRate), elapsed.Round(time.Millisecond), quantile(rawRate, 0), quantile(rawRate, 1),
		quantile(cellRate, 0), quantile(cellRate, 1), scale)
	r.set("setup_s", median(setup)*scale, "s")
	r.set("cells_per_s", median(cellRate), "cells/s")
	r.set("sim_mcycles_per_s", median(cycleRate), "Mcycles/s")
	return nil
}

// traceGrid is the traced run of a grid workload: one plain pass (the
// reference for trace_overhead, cell timings and GC), then the same cells
// replayed step by step through each layer's own entry points.
func traceGrid(ctx context.Context, r *runner, w gridWorkload, cfgs []machine.Config,
	prepare func() ([]*exp.Prepared, error)) error {
	ps, err := prepare()
	if err != nil {
		return err
	}
	plain := runGridPass(ctx, ps, cfgs, nil)
	var first totals
	checkGridPass(r, w, ps, cfgs, plain, &first)
	r.counts = first

	var lt layers
	var replayed []*exp.Prepared
	for _, name := range w.benches {
		p, err := lt.prepare(bench.ByName(name))
		if err != nil {
			return err
		}
		replayed = append(replayed, p)
	}
	checkReplayPrepared(r, w.name, ps, replayed)
	runs, wall, err := lt.cells(ctx, replayed, cfgs)
	if err != nil {
		r.fail(first.cells, "%s: replay: %v", w.name, err)
	} else {
		checkReplayRuns(r, w.name, plain.res.Runs, runs)
	}
	lt.report(r)
	reportNoFabric(r)
	r.set("exp.cell_ms_p50", quantile(msList(plain.cells), 0.50), "ms")
	r.set("exp.cell_ms_p95", quantile(msList(plain.cells), 0.95), "ms")
	r.set("exp.grid_overhead_ms", ms(plain.wall-sumDur(plain.cells)), "ms")
	plain.gc.report(r)
	r.set("trace_overhead", wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	return nil
}

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
