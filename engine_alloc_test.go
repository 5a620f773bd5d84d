package fgpsim

import (
	"runtime"
	"testing"

	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
)

// maxRunBytes bounds the bytes one complete run of sort allocates. A run
// writes only a few data and stack pages of its 8 MB address space, and
// ir.Memory allocates pages on first write, so a run allocates well under
// a megabyte; a flat memory image allocated per run would cost the full
// 8 MB and fail the bound. Dyn256's larger node store gets three times as
// much.
const maxRunBytes = 2 << 20

// TestEngineAllocRegression bounds the engines' steady-state allocation
// rate and the bytes a run allocates. With the structure-of-arrays stores,
// block node ranges and ready queues (internal/core/soa.go) a run
// allocates a few thousand objects total — slab growth, rings, and map
// growth — which amortizes to well under 0.2 allocations per simulated
// cycle. The seed engine allocated ~10 per cycle, so these bounds leave
// generous headroom for host variance while still failing loudly if
// per-node or per-block allocation ever creeps back into the hot loop.
func TestEngineAllocRegression(t *testing.T) {
	w := workload(t)
	for _, tc := range []struct {
		name     string
		cfg      Config
		perCycle float64 // max allocations per simulated cycle
		bytes    float64 // max bytes allocated per run
	}{
		{"Static", exp.MustConfigFor(exp.Curve{Disc: Static, Branch: SingleBB}, 8, 'A'), 0.5, maxRunBytes},
		{"Dyn4Single", exp.MustConfigFor(exp.Curve{Disc: Dyn4, Branch: SingleBB}, 8, 'A'), 0.5, maxRunBytes},
		{"Dyn256Enlarged", exp.MustConfigFor(exp.Curve{Disc: Dyn256, Branch: EnlargedBB}, 8, 'A'), 1.0, 3 * maxRunBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the per-workload image cache so the measured runs see
			// only the engine's own allocations.
			s, err := w.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cycles := s.Cycles
			if cycles == 0 {
				t.Fatal("run reported zero cycles")
			}
			objects, bytes := allocsPerRun(2, func() {
				if _, err := w.Run(tc.cfg); err != nil {
					t.Error(err)
				}
			})
			perCycle := objects / float64(cycles)
			t.Logf("%s: %.0f allocs over %d cycles = %.4f allocs/cycle (bound %.2f), %.0f KiB per run",
				tc.name, objects, cycles, perCycle, tc.perCycle, bytes/1024)
			if perCycle > tc.perCycle {
				t.Errorf("%s allocates %.4f objects per simulated cycle, above the %.2f regression bound",
					tc.name, perCycle, tc.perCycle)
			}
			if bytes > tc.bytes {
				t.Errorf("%s allocates %.0f bytes per run, above the %.0f bound", tc.name, bytes, tc.bytes)
			}
		})
	}
}

// TestInterpAllocRegression bounds the bytes a plain functional run of
// sort allocates; exp.Prepare makes two such runs per program.
func TestInterpAllocRegression(t *testing.T) {
	w := workload(t)
	_, bytes := allocsPerRun(2, func() {
		if _, err := interp.Run(w.Prog, w.In0, w.In1, interp.Options{}); err != nil {
			t.Error(err)
		}
	})
	t.Logf("interp.Run: %.0f KiB per run", bytes/1024)
	if bytes > maxRunBytes {
		t.Errorf("interp.Run allocates %.0f bytes per run, above the %d bound", bytes, maxRunBytes)
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: after one
// warm-up call it averages the heap objects and bytes f allocates over
// runs calls, with GOMAXPROCS set to 1.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
