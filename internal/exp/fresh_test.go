package exp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
)

// TestCheckedInFig7Fresh: the committed results/fig7.txt must be
// regenerable from the current tree, byte for byte:
//
//	go run ./cmd/figures -fig 7 -bench grep,compress -workers 1 -quiet > results/fig7.txt
//
// An engine, loader or predictor change that moves the window sweep has to
// refresh the artifact in the same commit. The full sweep (72 cells) takes
// about ten seconds; under -short only the window-1 and window-256 rows
// are simulated and compared.
func TestCheckedInFig7Fresh(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig7.txt"))
	if err != nil {
		t.Fatal(err)
	}
	prepared := []*exp.Prepared{prepareOne(t, "grep"), prepareOne(t, "compress")}
	cfgs := exp.WindowConfigs()
	if testing.Short() {
		var ends []machine.Config
		for _, cfg := range cfgs {
			if cfg.WindowOverride == 1 || cfg.WindowOverride == 256 {
				ends = append(ends, cfg)
			}
		}
		cfgs = ends
	}
	res, err := exp.Grid(prepared, cfgs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cmd/figures prints the table with Println.
	got := exp.FigureWindow(res, []string{"compress", "grep"}) + "\n"
	if !testing.Short() {
		if got != string(want) {
			t.Fatalf("results/fig7.txt is stale — regenerate with: go run ./cmd/figures -fig 7 -bench grep,compress -workers 1 -quiet > results/fig7.txt\ngot:\n%s", got)
		}
		return
	}
	// Header lines plus the two simulated rows.
	keep := func(s string) []string {
		var out []string
		for i, line := range strings.Split(s, "\n") {
			if f := strings.Fields(line); i < 2 || len(f) > 0 && (f[0] == "1" || f[0] == "256") {
				out = append(out, line)
			}
		}
		return out
	}
	g, w := keep(got), keep(string(want))
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("results/fig7.txt window-1/256 rows are stale — regenerate with: go run ./cmd/figures -fig 7 -bench grep,compress -workers 1 -quiet > results/fig7.txt\ngot:\n%s\nwant:\n%s",
			strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}
