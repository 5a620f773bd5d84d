package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/chaos"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

// ConfigSpec is the JSON form of one machine configuration, using the same
// vocabulary as the CLI flags (cmd/tld, cmd/sim).
type ConfigSpec struct {
	Disc      string `json:"disc"`                // static, dyn1, dyn4, dyn256
	Issue     int    `json:"issue"`               // issue model 1..8
	Mem       string `json:"mem"`                 // memory configuration A..G
	Branch    string `json:"branch"`              // single, enlarged, perfect
	Window    int    `json:"window,omitempty"`    // window override (0 = discipline default)
	Predictor string `json:"predictor,omitempty"` // "", "2bit", "gshare"
}

// Config resolves the spec against the machine package's parsers.
func (c ConfigSpec) Config() (machine.Config, error) {
	cfg, err := machine.ParseConfig(c.Disc, c.Issue, c.Mem, c.Branch)
	if err != nil {
		return cfg, err
	}
	cfg.WindowOverride = c.Window
	switch c.Predictor {
	case "", "2bit":
	case "gshare":
		cfg.Predictor = machine.GSharePredictor
	default:
		return cfg, fmt.Errorf("server: unknown predictor %q (2bit, gshare)", c.Predictor)
	}
	return cfg, nil
}

// RunRequest is the body of POST /run: one program, one configuration,
// simulated synchronously within the request deadline.
type RunRequest struct {
	// Bench names one of the paper's benchmarks; alternatively Source is a
	// MiniC program with optional input streams (used for both the
	// profiling and the measurement run).
	Bench   string     `json:"bench,omitempty"`
	Source  string     `json:"source,omitempty"`
	In0     string     `json:"in0,omitempty"`
	In1     string     `json:"in1,omitempty"`
	Config  ConfigSpec `json:"config"`
	Timeout string     `json:"timeout,omitempty"` // Go duration; capped by the server
}

// SweepSpec is the body of POST /sweep: a program set crossed with a
// configuration grid, executed asynchronously cell by cell under the
// sweep harness's retry/quarantine/journal semantics. It is also the
// record persisted in the request journal, so it must stay self-contained:
// everything needed to re-run the sweep after a crash is in here.
type SweepSpec struct {
	Benches []string     `json:"benches,omitempty"`
	Source  string       `json:"source,omitempty"`
	In0     string       `json:"in0,omitempty"`
	In1     string       `json:"in1,omitempty"`
	Configs []ConfigSpec `json:"configs"`
	Retries int          `json:"retries,omitempty"`
	Timeout string       `json:"timeout,omitempty"` // per-cell run timeout
}

// validate rejects at accept what /run would reject: malformed configs
// and timeouts, unknown benchmarks, and a source that does not compile.
// Anything that passes runs cell by cell; a cell that still fails is
// quarantined, never the whole sweep.
func (s *SweepSpec) validate() error {
	if len(s.Benches) == 0 && s.Source == "" {
		return fmt.Errorf("server: sweep needs benches or source")
	}
	if len(s.Benches) > 0 && s.Source != "" {
		return fmt.Errorf("server: benches and source are mutually exclusive")
	}
	for _, name := range s.Benches {
		if bench.ByName(name) == nil {
			return fmt.Errorf("server: unknown benchmark %q", name)
		}
	}
	if s.Source != "" {
		b := &bench.Benchmark{Name: sourceName(s.Source, s.In0, s.In1), Source: s.Source}
		if _, err := b.Program(); err != nil {
			return err
		}
	}
	if len(s.Configs) == 0 {
		return fmt.Errorf("server: sweep needs at least one config")
	}
	for i, c := range s.Configs {
		if _, err := c.Config(); err != nil {
			return fmt.Errorf("config %d: %w", i, err)
		}
	}
	if s.Timeout != "" {
		if _, err := time.ParseDuration(s.Timeout); err != nil {
			return fmt.Errorf("server: bad timeout: %w", err)
		}
	}
	return nil
}

// Sweep states. A sweep is terminal in done/failed; "failed" means the
// sweep could not start at all (its journals would not open), while failed
// cells leave it "done" with a failed list. "interrupted" means a drain
// stopped it mid-flight and the journal will resume it next boot.
const (
	jobRunning     = "running"
	jobDone        = "done"
	jobFailed      = "failed"
	jobInterrupted = "interrupted"
)

// jobStatus is the JSON shape of GET /sweep/{id} (sweep.status).
type jobStatus struct {
	ID      string                `json:"id"`
	State   string                `json:"state"`
	Done    int                   `json:"done"`
	Total   int                   `json:"total"`
	Failed  []string              `json:"failed,omitempty"`
	Error   string                `json:"error,omitempty"`
	Results map[string]*stats.Run `json:"results,omitempty"`
	// Digests carries each result's content digest alongside Results, so a
	// client can verify the bytes it received against what the coordinator
	// journaled and audited.
	Digests map[string]string `json:"digests,omitempty"`
	// Integrity counters (DESIGN.md §17).
	AuditsRun         int `json:"audits_run,omitempty"`
	AuditsDisagreed   int `json:"audits_disagreed,omitempty"`
	AuditsResolved    int `json:"audits_resolved,omitempty"`
	IntegrityFailures int `json:"integrity_failures,omitempty"`
}

// KeyString is keyString for external harnesses: the chaos orchestrator
// renders the same result keys to line journal contents up against a
// sweep's /sweep/{id} results map.
func KeyString(k exp.Key) string { return keyString(k) }

// keyString renders an exp.Key as a stable, human-greppable result key.
func keyString(k exp.Key) string {
	s := fmt.Sprintf("%s/%s/i%d/%c/%s", k.Bench, k.Disc, k.Issue, k.Mem, k.Branch)
	if k.Window != 0 {
		s += fmt.Sprintf("/w%d", k.Window)
	}
	if k.Pred != 0 {
		s += fmt.Sprintf("/p%d", k.Pred)
	}
	return s
}

// ---------- request journal ----------

// journalRecord is one line of the request journal. "accept" carries the
// full spec (the journal is the source of truth for crash recovery) plus a
// self-hash of the spec's canonical JSON, so a resume can tell an intact
// record from one whose spec bytes were mangled in place (a torn line is
// caught by JSON decoding; this catches corruption that still parses);
// "done" marks the job settled so a restart does not re-run it; "epoch"
// is the crash epoch of a boot that resumed sweeps (epochBase).
type journalRecord struct {
	Op       string     `json:"op"` // "accept" | "done" | "epoch"
	ID       string     `json:"id,omitempty"`
	Spec     *SweepSpec `json:"spec,omitempty"`
	SpecHash string     `json:"spec_hash,omitempty"`
	OK       bool       `json:"ok,omitempty"`
	Err      string     `json:"err,omitempty"`
	Epoch    int        `json:"epoch,omitempty"`
}

// A boot that resumes sweeps first writes its crash epoch, one above every
// epoch in the request journal, and each sweep it resumes hands out
// attempts from epochBase(epoch) up. Every attempt an earlier boot handed
// out — journaled or not — lies below that base, because each boot's
// attempts start at its own base (0 for a sweep accepted fresh) and no
// cell takes 2^32 assignments in one boot. So late results from workers
// that never noticed the restart merge below post-restart ones, without a
// journal write per assignment.
func epochBase(epoch int) int { return epoch << 32 }

// Attempts are ints holding epoch<<32: a build whose int has 32 bits fails
// here instead of wrapping the shift.
const _ uint = strconv.IntSize - 64

// specHash is the self-hash guarding an accept record: sha256 over the
// spec's canonical (encoding/json) serialization, truncated for brevity.
func specHash(spec *SweepSpec) string {
	data, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// pendingJobs replays a request journal and returns the accepted-but-not-
// settled specs in acceptance order — the sweeps a crash or drain left
// unfinished — and the largest crash epoch recorded (0 if none). Torn or
// malformed lines are skipped (exp.ReplayJournal).
func pendingJobs(disk chaos.Disk, path string) ([]journalRecord, int, error) {
	var order []string
	specs := make(map[string]*SweepSpec)
	epoch := 0
	err := exp.ReplayJournal(disk, path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch rec.Op {
		case "accept":
			if rec.Spec == nil {
				return fmt.Errorf("accept without spec")
			}
			if rec.SpecHash != specHash(rec.Spec) {
				// The record parses but its spec does not match the hash it
				// was accepted with (or it lost the hash): resuming it would
				// run the wrong sweep under the accepted ID. Skip it loudly.
				fmt.Fprintf(os.Stderr, "server: request journal: skipping job %s: spec hash mismatch (corrupt record)\n", rec.ID)
				return nil
			}
			if _, seen := specs[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			specs[rec.ID] = rec.Spec
		case "done":
			delete(specs, rec.ID)
		case "epoch":
			epoch = max(epoch, rec.Epoch)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var out []journalRecord
	for _, id := range order {
		if spec, ok := specs[id]; ok {
			out = append(out, journalRecord{Op: "accept", ID: id, Spec: spec})
		}
	}
	return out, epoch, nil
}

// sourceName derives a stable benchmark name for an ad-hoc MiniC program,
// so its prepared form (and journal keys) are content-addressed.
func sourceName(src, in0, in1 string) string {
	h := sha256.Sum256([]byte(src + "\x00" + in0 + "\x00" + in1))
	return "src-" + hex.EncodeToString(h[:6])
}

// SourceName is sourceName for external harnesses (the chaos orchestrator
// derives the same content-addressed benchmark name to compare a fabric
// sweep's results against a fault-free control of the same spec).
func SourceName(src, in0, in1 string) string { return sourceName(src, in0, in1) }
