// Command benchguard compares two engine benchmark JSON files (the format
// results/BENCH_engine.json is written in by TestEmitEngineBenchJSON) and
// fails when the current file's simulation throughput has regressed beyond
// a threshold relative to the baseline.
//
// Usage:
//
//	benchguard -baseline results/BENCH_engine.json -current /tmp/bench.json [-max-regress 0.25]
//
// For every engine entry present in both files, the current
// sim_mcycles_per_sec must be at least (1 - max-regress) times the
// baseline's. Entries present on only one side are reported but do not
// fail the run (new configurations should not need a baseline edit to
// land, and retired ones should not block CI). Exit status 1 on any
// regression beyond the threshold, 2 on usage or decode errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type record struct {
	MCyclesPerSec float64 `json:"sim_mcycles_per_sec"`
}

type benchFile struct {
	GoVersion string            `json:"go_version"`
	Engines   map[string]record `json:"engines"`
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	basePath := flag.String("baseline", "results/BENCH_engine.json", "baseline benchmark JSON")
	curPath := flag.String("current", "", "current benchmark JSON to check (required)")
	maxRegress := flag.Float64("max-regress", 0.25, "max allowed fractional throughput drop vs baseline")
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	bm, cm := base.Engines, cur.Engines
	names := make([]string, 0, len(bm))
	for k := range bm {
		names = append(names, k)
	}
	sort.Strings(names)

	floor := 1 - *maxRegress
	failed := false
	for _, name := range names {
		b := bm[name].MCyclesPerSec
		c, ok := cm[name]
		if !ok {
			fmt.Printf("%-18s baseline %8.3f Mcyc/s, missing from current (skipped)\n", name, b)
			continue
		}
		if b <= 0 {
			fmt.Printf("%-18s baseline throughput unset (skipped)\n", name)
			continue
		}
		ratio := c.MCyclesPerSec / b
		status := "ok"
		if ratio < floor {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-18s baseline %8.3f -> current %8.3f Mcyc/s  (%.2fx)  %s\n", name, b, c.MCyclesPerSec, ratio, status)
	}
	for k, c := range cm {
		if _, ok := bm[k]; !ok {
			fmt.Printf("%-18s current %8.3f Mcyc/s, no baseline (skipped)\n", k, c.MCyclesPerSec)
		}
	}
	if failed {
		fmt.Printf("FAIL: throughput regressed more than %.0f%% vs %s\n", *maxRegress*100, *basePath)
		os.Exit(1)
	}
	fmt.Printf("PASS: all entries within %.0f%% of %s\n", *maxRegress*100, *basePath)
}
