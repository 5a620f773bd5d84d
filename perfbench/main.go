// Command perfbench is fgpsim's end-to-end benchmark. It drives the public
// functions of each layer (minic, interp, enlarge, loader, core, exp,
// server) from outside and never edits them, over three workloads:
//
//	figures      the Figure 2-6 sweep on a fixed benchmark subset
//	deep-window  the window-depth sweep (Dyn256 at windows 1-256)
//	fabric       seeded generated-program sweeps served by an in-process
//	             coordinator and one single-cell worker over loopback
//
// Usage:
//
//	perfbench --workload figures --seed 1 --seconds 30 --trace 0
//
// A run repeats identical passes of its workload until --seconds of timed
// work have passed. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, and the per-layer metrics of a traced run with --trace 1.
// Failures of correctness checks are listed on standard error. README.md
// describes the design; run.sh builds and runs it from a checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string // scratch directory for journals and worker state
	toy      bool   // quick-test size: a few cells per workload, no pinned tables
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner accumulates the outcome of one invocation.
type runner struct {
	opts      options
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	counts    totals // simulated counts of one pass
}

// attempt counts n cells as attempted.
func (r *runner) attempt(n int) { r.attempted += n }

// fail records a failed check that spoils n attempted cells.
func (r *runner) fail(n int, format string, args ...any) {
	r.failed += n
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records one metric.
func (r *runner) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) report() report {
	return report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *runner) error{
	"figures":     func(ctx context.Context, r *runner) error { return runGrid(ctx, r, figuresWorkload(r.opts.toy)) },
	"deep-window": func(ctx context.Context, r *runner) error { return runGrid(ctx, r, deepWindowWorkload(r.opts.toy)) },
	"fabric":      runFabric,
}

// run executes one invocation. A returned error means the benchmark itself
// could not run; failed correctness checks are in the runner instead.
func run(ctx context.Context, o options) (*runner, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (figures, deep-window, fabric)", o.workload)
	}
	r := &runner{opts: o, metrics: make(map[string]metric)}
	if err := drive(ctx, r); err != nil {
		return nil, err
	}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss, "MB")
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no cells attempted", o.workload)
	}
	return r, nil
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "figures", "figures, deep-window or fabric")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed work per run, in seconds (whole passes)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "scratch directory for journals and worker state")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(2) // the load shape: at most two busy threads
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r, err := run(ctx, o)
	if err != nil {
		fatal(err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(r.report())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
