// Command figures regenerates the paper's evaluation: it prepares the five
// benchmarks (profiling run on input set 1, enlargement file, trace on
// input set 2), sweeps the machine configurations in parallel, and prints
// the data behind Figures 2 through 6. With -grid it runs the full
// 560-point configuration grid instead of the figure subset.
//
// Usage:
//
//	figures [-fig 0] [-bench all] [-grid] [-workers 0] [-quiet]
//	        [-timeout 0] [-resume sweep.journal]
//
// With -resume, completed grid cells are journaled to the named file and a
// killed or interrupted sweep resumes where it left off. Cells that keep
// failing are quarantined and reported, and their figure entries render as
// "-" instead of aborting the whole sweep.
//
// With -schedgap it instead measures the list scheduler's optimality gap
// against the exact branch-and-bound scheduler over the MiniC and generated
// corpora, prints the distribution table, and refreshes the checked-in
// results/SCHEDGAP.json baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/schedgap"
)

func main() {
	var (
		fig         = flag.Int("fig", 0, "figure to print: 2..6, or 0 for all")
		benchArg    = flag.String("bench", "all", "benchmark name or 'all'")
		full        = flag.Bool("grid", false, "run the full 560-point grid and print a summary")
		workers     = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		csvPath     = flag.String("csv", "", "also dump every measured point as CSV to this file")
		report      = flag.String("report", "", "write a markdown report (figures + claim checks) to this file")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
		timeout     = flag.Duration("timeout", 0, "per-cell simulation timeout (0 = none)")
		resume      = flag.String("resume", "", "journal file: completed cells persist and resume across runs")
		schedgapF   = flag.Bool("schedgap", false, "print the static scheduler optimality-gap table and refresh results/SCHEDGAP.json instead of the figures")
		schedgapOut = flag.String("schedgap-out", "results/SCHEDGAP.json", "with -schedgap: write the JSON report here ('' = print only)")
	)
	flag.Parse()
	if *schedgapF {
		if err := runSchedgap(*schedgapOut); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	err = run(ctx, *fig, *benchArg, *full, *workers, *quiet, *csvPath, *report, *timeout, *resume)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// runSchedgap measures the list scheduler's optimality gap over the MiniC
// and generated corpora (internal/schedgap), prints the distribution
// table, and refreshes the checked-in JSON baseline. Any correctness
// violation (an illegal schedule, or a list schedule beating the exact
// optimum) is a hard failure.
func runSchedgap(outPath string) error {
	rep, violations, err := schedgap.Run(schedgap.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "schedule violation: %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d schedule violations", len(violations))
	}
	if outPath == "" {
		return nil
	}
	data, err := rep.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	return nil
}

// startProfiles starts CPU profiling and/or arms a heap snapshot, returning
// a function that finishes both. Empty paths disable each profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run(ctx context.Context, fig int, benchArg string, full bool, workers int, quiet bool, csvPath, reportPath string,
	timeout time.Duration, resume string) error {
	var benchmarks []*bench.Benchmark
	if benchArg == "all" {
		benchmarks = bench.All()
	} else {
		for _, name := range strings.Split(benchArg, ",") {
			b := bench.ByName(strings.TrimSpace(name))
			if b == nil {
				return fmt.Errorf("unknown benchmark %q", name)
			}
			benchmarks = append(benchmarks, b)
		}
	}

	start := time.Now()
	var prepared []*exp.Prepared
	for _, b := range benchmarks {
		if !quiet {
			fmt.Fprintf(os.Stderr, "preparing %s (profile, enlargement file, trace)...\n", b.Name)
		}
		p, err := exp.Prepare(b, enlarge.DefaultOptions())
		if err != nil {
			return err
		}
		prepared = append(prepared, p)
	}

	cfgs := exp.FigureConfigs()
	if full {
		cfgs = machine.Grid()
	}
	if fig == 7 {
		// The extension figure (window-depth sweep) has its own configs.
		cfgs = exp.WindowConfigs()
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "running %d configurations x %d benchmarks...\n", len(cfgs), len(prepared))
	}
	progress := func(done, total int) {
		if !quiet && done%100 == 0 {
			fmt.Fprintf(os.Stderr, "  %d/%d\n", done, total)
		}
	}
	res, err := exp.GridContext(ctx, prepared, cfgs, exp.GridOptions{
		Workers:    workers,
		Progress:   progress,
		Retries:    2,
		RunTimeout: timeout,
		Journal:    resume,
	})
	if res != nil {
		for _, ce := range res.Failed {
			fmt.Fprintf(os.Stderr, "quarantined: %v\n", ce)
		}
	}
	if err != nil {
		if len(res.Failed) > 0 && ctx.Err() == nil {
			// Quarantined cells are reported above and render as "-" in the
			// figures; keep going with what completed.
			fmt.Fprintf(os.Stderr, "%d cell(s) failed; rendering partial figures\n", len(res.Failed))
		} else {
			return err
		}
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "sweep finished in %s\n", time.Since(start).Round(time.Second))
	}

	names := make([]string, len(prepared))
	for i, p := range prepared {
		names[i] = p.Bench.Name
	}
	sort.Strings(names)

	printed := false
	show := func(n int, render func(*exp.Results, []string) string) {
		if fig == 0 || fig == n {
			fmt.Println(render(res, names))
			printed = true
		}
	}
	if fig == 7 {
		fmt.Println(exp.FigureWindow(res, names))
		printed = true
	} else {
		show(2, exp.Figure2)
		show(3, exp.Figure3)
		show(4, exp.Figure4)
		show(5, exp.Figure5)
		show(6, exp.Figure6)
	}
	if !printed {
		return fmt.Errorf("no such figure %d (choose 2..7 or 0)", fig)
	}
	if full {
		printGridSummary(res, names, cfgs)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteCSV(f); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", csvPath)
		}
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteReport(f, names); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", reportPath)
		}
	}
	return nil
}

// printGridSummary reports grid-level aggregates: the best configuration
// per discipline and the headline speedups.
func printGridSummary(res *exp.Results, names []string, cfgs []machine.Config) {
	fmt.Println("Grid summary (560 configurations x benchmarks)")
	type best struct {
		cfg machine.Config
		v   float64
	}
	bests := map[machine.Discipline]best{}
	for _, cfg := range cfgs {
		v := res.GeoMeanNPC(names, cfg)
		if v != v { // NaN
			continue
		}
		if b, ok := bests[cfg.Disc]; !ok || v > b.v {
			bests[cfg.Disc] = best{cfg, v}
		}
	}
	for _, d := range machine.Disciplines {
		if b, ok := bests[d]; ok {
			fmt.Printf("  best %-8s %6.2f nodes/cycle at %s\n", d.String()+":", b.v, b.cfg)
		}
	}
	seqCfg, err := exp.ConfigFor(exp.Curve{Disc: machine.Static, Branch: machine.SingleBB}, 1, 'A')
	if err != nil {
		return
	}
	if base := res.GeoMeanNPC(names, seqCfg); base == base && base > 0 {
		if b, ok := bests[machine.Dyn256]; ok {
			fmt.Printf("  speedup over sequential static: %.1fx\n", b.v/base)
		}
	}
}
