package fgpsim

import (
	"testing"

	"fgpsim/internal/exp"
)

// TestEngineAllocRegression bounds the dynamic engine's steady-state
// allocation rate. With the structure-of-arrays stores and the intrusive
// ready queues (internal/core/soa.go) a run allocates a few thousand
// objects total — slab growth, rings, and map growth — which amortizes to
// well under 0.2 allocations per simulated cycle. The seed engine
// allocated ~10 per cycle, so these bounds leave generous headroom for
// host variance while still failing loudly if per-node or per-block
// allocation ever creeps back into the hot loop.
func TestEngineAllocRegression(t *testing.T) {
	w := workload(t)
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound float64 // max allocations per simulated cycle
	}{
		{"Dyn4Single", exp.MustConfigFor(exp.Curve{Disc: Dyn4, Branch: SingleBB}, 8, 'A'), 0.5},
		{"Dyn256Enlarged", exp.MustConfigFor(exp.Curve{Disc: Dyn256, Branch: EnlargedBB}, 8, 'A'), 1.0},
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
			avg := testing.AllocsPerRun(2, func() {
				if _, err := w.Run(tc.cfg); err != nil {
					t.Error(err)
				}
			})
			perCycle := avg / float64(cycles)
			t.Logf("%s: %.0f allocs over %d cycles = %.4f allocs/cycle (bound %.2f)",
				tc.name, avg, cycles, perCycle, tc.bound)
			if perCycle > tc.bound {
				t.Errorf("%s allocates %.4f objects per simulated cycle, above the %.2f regression bound",
					tc.name, perCycle, tc.bound)
			}
		})
	}
}
