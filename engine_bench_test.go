// Engine micro-benchmarks tracking the simulator's own performance (as
// opposed to the simulated machine's, which bench_test.go measures). Each
// BenchmarkEngine* times complete simulated runs of the sort benchmark on
// one machine configuration and reports, besides the usual ns/op and
// allocs/op, the simulated cycle count and the host-side allocations per
// simulated cycle — the steady-state GC-pressure figure the allocation
// regression test bounds. Run with:
//
//	go test -bench=Engine -benchtime=1x
//
// BenchmarkPrepare times the fixed cost every program pays before its
// first cell, exp.Prepare, on each paper benchmark:
//
//	go test -run '^$' -bench '^BenchmarkPrepare$' -benchmem
//
// Setting FGPSIM_BENCH_JSON=path additionally runs the suite through
// testing.Benchmark and writes the measurements as JSON (the file
// results/BENCH_engine.json is produced this way), so the performance
// trajectory is tracked across PRs.
package fgpsim

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"fgpsim/internal/exp"
)

// engineConfigs are the configurations the engine benchmarks exercise: the
// dynamic engine at both window extremes, single and enlarged blocks, and
// the static engine for comparison.
var engineConfigs = []struct {
	Name string
	Cfg  func() Config
}{
	{"Dyn4Single", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Dyn4, Branch: SingleBB}, 8, 'A') }},
	{"Dyn4Enlarged", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Dyn4, Branch: EnlargedBB}, 8, 'A') }},
	{"Dyn256Single", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Dyn256, Branch: SingleBB}, 8, 'A') }},
	{"Dyn256Enlarged", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Dyn256, Branch: EnlargedBB}, 8, 'A') }},
	{"Dyn256Cached", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Dyn256, Branch: EnlargedBB}, 8, 'G') }},
	{"Static", func() Config { return exp.MustConfigFor(exp.Curve{Disc: Static, Branch: SingleBB}, 8, 'A') }},
}

// benchEngineRun times complete simulated runs of one configuration.
func benchEngineRun(b *testing.B, cfg Config) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		s, err := w.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkEngineDyn4Single(b *testing.B)     { benchEngineRun(b, engineConfigs[0].Cfg()) }
func BenchmarkEngineDyn4Enlarged(b *testing.B)   { benchEngineRun(b, engineConfigs[1].Cfg()) }
func BenchmarkEngineDyn256Single(b *testing.B)   { benchEngineRun(b, engineConfigs[2].Cfg()) }
func BenchmarkEngineDyn256Enlarged(b *testing.B) { benchEngineRun(b, engineConfigs[3].Cfg()) }
func BenchmarkEngineDyn256Cached(b *testing.B)   { benchEngineRun(b, engineConfigs[4].Cfg()) }
func BenchmarkEngineStatic(b *testing.B)         { benchEngineRun(b, engineConfigs[5].Cfg()) }

// BenchmarkPrepare prepares each paper benchmark from a fresh value, so an
// operation is what an unseen program costs: compile, the profiling and
// reference passes, the enlargement file and the hints.
func BenchmarkPrepare(b *testing.B) {
	for _, bm := range Benchmarks() {
		name := bm.Name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PrepareBenchmark(BenchmarkByName(name), DefaultEnlargeOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// engineBenchRecord is one measured configuration in BENCH_engine.json.
type engineBenchRecord struct {
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	SimCycles      int64   `json:"sim_cycles"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	MCyclesPerSec  float64 `json:"sim_mcycles_per_sec"`
	SpeedupVsSeed  float64 `json:"speedup_vs_seed,omitempty"`
	AllocDropX     float64 `json:"alloc_drop_vs_seed,omitempty"`
}

// seedBaseline is one pre-pooling measurement (commit 479350e, same
// benchmarks, same host class) that the emitted report computes its
// speedup and allocation-drop ratios against.
type seedBaseline struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	SimCycles   int64 `json:"sim_cycles"`
}

// seedFigure3NsPerOp is the seed's BenchmarkFigure3 wall clock
// (go test -bench=Figure3 -benchtime=1x at commit 479350e, same host).
const seedFigure3NsPerOp int64 = 17_660_151_705

// engineSeedBaselines are the seed engine's measurements, taken before the
// pooling/event-structure rewrite landed.
var engineSeedBaselines = map[string]seedBaseline{
	"Dyn4Single":     {645_680_944, 974_800, 94_674},
	"Dyn4Enlarged":   {437_512_406, 1_040_775, 84_071},
	"Dyn256Single":   {2_222_397_872, 2_587_780, 85_136},
	"Dyn256Enlarged": {1_957_875_433, 2_503_409, 84_022},
	"Dyn256Cached":   {2_245_781_930, 2_944_517, 95_197},
	"Static":         {12_056_864, 2_125, 223_863},
}

// TestEmitEngineBenchJSON writes the engine benchmark measurements as JSON
// when FGPSIM_BENCH_JSON names an output path; it is skipped otherwise, so
// the ordinary test run stays fast and side-effect free.
func TestEmitEngineBenchJSON(t *testing.T) {
	path := os.Getenv("FGPSIM_BENCH_JSON")
	if path == "" {
		t.Skip("set FGPSIM_BENCH_JSON=path to emit engine benchmark JSON")
	}
	out := struct {
		GoVersion string                       `json:"go_version"`
		GOARCH    string                       `json:"goarch"`
		Benchmark string                       `json:"benchmark"`
		Engines   map[string]engineBenchRecord `json:"engines"`
		Seed      map[string]seedBaseline      `json:"seed_baseline"`
		Figure3   struct {
			NsPerOp     int64   `json:"ns_per_op"`
			SeedNsPerOp int64   `json:"seed_ns_per_op"`
			Speedup     float64 `json:"speedup_vs_seed"`
		} `json:"figure3_sweep"`
	}{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Benchmark: "sort",
		Engines:   make(map[string]engineBenchRecord),
		Seed:      engineSeedBaselines,
	}
	for _, ec := range engineConfigs {
		cfg := ec.Cfg()
		var cycles int64
		r := testing.Benchmark(func(b *testing.B) {
			w, err := PrepareBenchmark(BenchmarkByName("sort"), DefaultEnlargeOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := w.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = s.Cycles
			}
		})
		rec := engineBenchRecord{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			SimCycles:   cycles,
		}
		if cycles > 0 {
			rec.AllocsPerCycle = float64(r.AllocsPerOp()) / float64(cycles)
		}
		if r.NsPerOp() > 0 {
			rec.MCyclesPerSec = float64(cycles) * 1e3 / float64(r.NsPerOp())
		}
		if sb, ok := engineSeedBaselines[ec.Name]; ok && r.NsPerOp() > 0 && r.AllocsPerOp() > 0 {
			rec.SpeedupVsSeed = float64(sb.NsPerOp) / float64(r.NsPerOp())
			rec.AllocDropX = float64(sb.AllocsPerOp) / float64(r.AllocsPerOp())
		}
		out.Engines[ec.Name] = rec
		fmt.Printf("%-16s %12d ns/op %10d allocs/op  %.4f allocs/cycle\n",
			ec.Name, r.NsPerOp(), r.AllocsPerOp(), rec.AllocsPerCycle)
	}
	// The acceptance criterion's wall-clock figure: the Figure 3 sweep.
	f3 := testing.Benchmark(BenchmarkFigure3)
	out.Figure3.NsPerOp = f3.NsPerOp()
	out.Figure3.SeedNsPerOp = seedFigure3NsPerOp
	out.Figure3.Speedup = float64(seedFigure3NsPerOp) / float64(f3.NsPerOp())
	fmt.Printf("Figure3 sweep    %12d ns/op (seed %d, %.1fx)\n",
		f3.NsPerOp(), seedFigure3NsPerOp, out.Figure3.Speedup)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
