package exp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fgpsim/internal/bench"
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

// TestCheckedInFiguresAllStaticFresh: the static/single and static/enlarged
// columns of Figures 3 and 4 in the committed results/figures_all.txt must
// be regenerable from the current tree:
//
//	go run ./cmd/figures -workers 1 -quiet > results/figures_all.txt
//
// They are the columns the translating loader's static schedules decide.
// The 28 static figure configurations on all five benchmarks take about
// two seconds; under -short only the 16 at memory config A are simulated,
// and Figure 4 is compared on its A row alone.
func TestCheckedInFiguresAllStaticFresh(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "figures_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var prepared []*exp.Prepared
	for _, b := range bench.All() {
		prepared = append(prepared, prepareOne(t, b.Name))
	}
	var cfgs []machine.Config
	for _, cfg := range exp.FigureConfigs() {
		if cfg.Disc == machine.Static && (!testing.Short() || cfg.Mem.ID == 'A') {
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := exp.Grid(prepared, cfgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := exp.BenchNames(prepared)
	compared := 0
	for _, fig := range []string{exp.Figure3(res, names), exp.Figure4(res, names)} {
		title := fig[:strings.IndexByte(fig, ':')+1]
		got, checked := staticColumns(t, fig, title), staticColumns(t, string(want), title)
		for row, g := range got {
			if g[0] == "-" {
				continue // not simulated under -short
			}
			compared++
			if w := checked[row]; g != w {
				t.Errorf("results/figures_all.txt %s row %s: static/single, static/enlarged = %s, fresh %s — regenerate with: go run ./cmd/figures -workers 1 -quiet > results/figures_all.txt",
					title, row, w, g)
			}
		}
	}
	rows := 15 // 8 issue models of Figure 3, 7 memory configs of Figure 4
	if testing.Short() {
		rows = 9
	}
	if compared != rows {
		t.Errorf("compared %d rows, want %d", compared, rows)
	}
}

// staticColumns returns, by row label, the static/single and
// static/enlarged cells (the first and fifth curves) of the figure table
// that starts with title in text.
func staticColumns(t *testing.T, text, title string) map[string][2]string {
	t.Helper()
	i := strings.Index(text, title)
	if i < 0 {
		t.Fatalf("no %s table", title)
	}
	lines := strings.Split(text[i:], "\n")
	out := make(map[string][2]string)
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			break
		}
		if len(f) != 11 {
			t.Fatalf("%s row %q has %d fields, want 11", title, line, len(f))
		}
		out[f[0]] = [2]string{f[1], f[5]}
	}
	return out
}
