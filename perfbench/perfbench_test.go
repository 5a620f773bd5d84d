package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the quick test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuick runs every workload of BENCHMARK.json at toy size twice, plain
// and traced. Each run must pass its own checks and print exactly the
// metrics BENCHMARK.json names, each with its unit, and the simulated
// counts must repeat exactly from run to run.
func TestQuick(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			var counts []totals
			for i := 0; i < 2; i++ {
				o := options{workload: wl.Name, seed: 7, trace: trace, tmp: t.TempDir(), toy: true}
				r, err := run(context.Background(), o)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
				}
				for _, p := range r.problems {
					t.Errorf("%s trace=%v: check failed: %s", wl.Name, trace, p)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Errorf("%s trace=%v: %d of %d cells failed", wl.Name, trace, r.failed, r.attempted)
				}
				for _, m := range want {
					got, ok := r.metrics[m.Name]
					if !ok {
						t.Errorf("%s trace=%v: metric %s not printed", wl.Name, trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(r.metrics), len(want))
				}
				counts = append(counts, r.counts)
			}
			if counts[0] != counts[1] || counts[0].cells == 0 {
				t.Errorf("%s trace=%v: simulated counts %v then %v", wl.Name, trace, counts[0], counts[1])
			}
		}
	}
}
