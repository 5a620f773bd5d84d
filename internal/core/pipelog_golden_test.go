package core_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fgpsim/internal/bench"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
)

// pipeGoldenCycles is how many leading cycles of each run the golden
// digests cover.
const pipeGoldenCycles = 20_000

// pipeGoldenConfigs are the machines whose pipeline event streams are
// pinned: both window extremes, every branch mode the dynamic engine has
// (single, enlarged, perfect, fill unit), cached memory, and the
// conservative-disambiguation ablation. Over sort's first 20 000 cycles the
// perfect/D stream happens to equal the enlarged/A one (they first differ
// at cycle 20 492), so those two digests match.
func pipeGoldenConfigs() []struct {
	name string
	cfg  machine.Config
} {
	conservative := exp.MustConfigFor(exp.Curve{Disc: machine.Dyn256, Branch: machine.EnlargedBB}, 5, 'B')
	conservative.ConservativeMem = true
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"dyn256-enlarged-i8-A", exp.MustConfigFor(exp.Curve{Disc: machine.Dyn256, Branch: machine.EnlargedBB}, 8, 'A')},
		{"dyn4-single-i2-G", exp.MustConfigFor(exp.Curve{Disc: machine.Dyn4, Branch: machine.SingleBB}, 2, 'G')},
		{"dyn256-perfect-i8-D", exp.MustConfigFor(exp.Curve{Disc: machine.Dyn256, Branch: machine.Perfect}, 8, 'D')},
		{"dyn256-fillunit-i8-A", exp.MustConfigFor(exp.Curve{Disc: machine.Dyn256, Branch: machine.FillUnit}, 8, 'A')},
		{"dyn256-enlarged-conservative-i5-B", conservative},
	}
}

// digestPipe hashes a pipeline event stream: every event's cycle, kind,
// sequence number and rendered node, in recording order.
func digestPipe(events []core.PipeEvent) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for _, ev := range events {
		fmt.Fprintf(w, "%d %s %d %s\n", ev.Cycle, ev.Kind, ev.Seq, ev.What)
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// readPipeGolden parses testdata/pipe_golden.txt: "name events sha256"
// lines, '#' comments.
func readPipeGolden(t *testing.T) map[string][2]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "pipe_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2]string)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		out[f[0]] = [2]string{f[1], f[2]}
	}
	return out
}

// TestPipeEventStreamGolden pins the dynamic engine's cycle-level behavior,
// not just its run totals: the full pipeline event stream (issue, exec,
// done, retire, mispredict, fault, squash — with cycle, sequence number
// and rendered node) over the first 20 000 cycles of sort must hash to the
// committed digest on each configuration. Any change to issue order,
// wakeup timing, scheduling order or squash handling shows up here, at the
// first divergent cycle a `cmd/sim -pipe` diff would then locate.
func TestPipeEventStreamGolden(t *testing.T) {
	want := readPipeGolden(t)
	p, err := exp.Prepare(bench.ByName("sort"), enlarge.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range pipeGoldenConfigs() {
		pipe := &core.PipeLog{MaxCycles: pipeGoldenCycles}
		if _, err := p.RunContext(context.Background(), tc.cfg, core.Limits{Pipe: pipe}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := digestPipe(pipe.Events)
		n := strconv.Itoa(len(pipe.Events))
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("no golden digest for %s; add: %s %s %s", tc.name, tc.name, n, got)
			continue
		}
		if w[0] != n || w[1] != got {
			t.Errorf("%s: pipeline event stream changed: got %s events %s, want %s events %s",
				tc.name, n, got, w[0], w[1])
		}
	}
}
