// Package chaos is a deterministic, seeded failpoint engine for the
// service layer: the same determinism contract internal/faultinject gives
// the simulation engine (every decision derives from a splitmix64 stream
// over a seed, so a failing schedule replays exactly), lifted to the two
// surfaces the fabric's durability story depends on — the filesystem under
// the journals and snapshots, and the HTTP transport between coordinator
// and workers.
//
// The package is a leaf: it depends on nothing but the standard library,
// so internal/exp, internal/snapshot, and internal/server can all accept a
// chaos.Disk without import cycles. The orchestrator that runs whole
// coordinator/worker sweeps under fault schedules and checks end-to-end
// invariants lives in internal/chaos/harness.
//
// A Schedule is the unit of exploration, replay, and shrinking: a seed
// expands deterministically into a finite plan of faults, each pinned to a
// named component (a worker's disk, the coordinator's disk, a worker's
// network path), an operation class within it, and the N-th operation of
// that class. Because the plan is finite, the injected adversary always
// drains — "recovery terminates" is a checkable invariant, not a hope.
// Shrinking keeps the seed and disables plan entries (Keep) until the
// failure is 1-minimal, the same reducer idiom difftest.Reduce uses on
// MiniC programs.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind is one class of injectable fault. Disk kinds are consumed by FS,
// net kinds by Transport.
type Kind uint8

const (
	// TornWrite lands only a prefix of the buffer and fails the write —
	// what a crash mid-write(2) leaves behind.
	TornWrite Kind = iota
	// WriteNoSpace fails the write with nothing landed (ENOSPC).
	WriteNoSpace
	// SyncFail fails fsync: the data's durability is unknown, and the
	// writer must not report anything accepted since the last good sync as
	// durable (exp.Journal reopens and re-appends once, then poisons
	// itself on a second failure).
	SyncFail
	// RenameCut fails a rename with the target untouched — the visible
	// half of a power cut between prepare and publish.
	RenameCut
	// BitrotRead silently flips one bit of a ReadFile result; the caller's
	// CRCs and fallback ladders must catch it.
	BitrotRead

	// NetDrop fails the request without sending it.
	NetDrop
	// NetDelay sleeps before sending (a slow link, not a lost one).
	NetDelay
	// NetDup sends the request twice; both deliveries reach the server.
	NetDup
	// NetTruncate cuts the request body mid-stream (a torn POST).
	NetTruncate
	// NetPartition opens a partition window: every request on the
	// transport fails until the window closes.
	NetPartition

	// NetCorrupt silently alters a digit of the request body in transit.
	// Since the end-to-end integrity layer landed (content digests on every
	// result, verified at ingest and at merge — DESIGN.md §17) this is part
	// of the tolerated fault model: a corrupted payload must be rejected,
	// the sender struck, and the cell re-served byte-identical from an
	// honest execution. The orchestrator's self-test still uses it with
	// digests disarmed to seed a deliberate violation and prove the
	// catch/replay/shrink loop works.
	NetCorrupt

	numKinds
)

var kindNames = [numKinds]string{
	TornWrite:    "torn-write",
	WriteNoSpace: "enospc",
	SyncFail:     "sync-fail",
	RenameCut:    "rename-cut",
	BitrotRead:   "bitrot-read",
	NetDrop:      "net-drop",
	NetDelay:     "net-delay",
	NetDup:       "net-dup",
	NetTruncate:  "net-truncate",
	NetPartition: "net-partition",
	NetCorrupt:   "net-corrupt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// DiskKind reports whether k is consumed by FS (false: by Transport).
func (k Kind) DiskKind() bool { return k <= BitrotRead }

// DiskKinds is the tolerated disk fault set: everything FS can inject.
func DiskKinds() []Kind {
	return []Kind{TornWrite, WriteNoSpace, SyncFail, RenameCut, BitrotRead}
}

// NetKinds is the tolerated network fault set: everything Transport can
// inject, NetCorrupt included — payload corruption moved inside the trust
// model when result digests landed (DESIGN.md §17).
func NetKinds() []Kind {
	return []Kind{NetDrop, NetDelay, NetDup, NetTruncate, NetPartition, NetCorrupt}
}

// diskClass maps a disk fault kind to the operation class whose counter
// arms it.
func diskClass(k Kind) string {
	switch k {
	case TornWrite, WriteNoSpace:
		return "write"
	case SyncFail:
		return "sync"
	case RenameCut:
		return "rename"
	case BitrotRead:
		return "read"
	}
	return ""
}

// netClasses are the request classes a net fault may target. Keying faults
// to the N-th request OF A CLASS (rather than the N-th request overall)
// keeps the interesting schedules replayable: the order of a worker's
// result posts is deterministic under sequential execution, while
// time-driven heartbeats interleave arbitrarily and would otherwise shift
// every subsequent fault site.
var netClasses = []string{"result", "poll", "snapshot", "register", "heartbeat"}

// Fault is one planned injection: the N-th operation (1-based) of Class on
// Component fails with Kind. Arg parameterizes the kind (prefix length,
// bit index, delay, window width).
type Fault struct {
	Component string `json:"component"`
	Kind      Kind   `json:"kind"`
	Class     string `json:"class"`
	N         int    `json:"n"`
	Arg       uint64 `json:"arg"`
}

func (f Fault) String() string {
	return fmt.Sprintf("%s/%s@%s#%d", f.Component, f.Kind, f.Class, f.N)
}

// Component declares one injectable surface of the system under test and
// the fault kinds that may be drawn against it.
type Component struct {
	Name  string
	Kinds []Kind
}

// Profile sizes a schedule's adversary.
type Profile struct {
	// MaxFaults bounds the plan (1..MaxFaults faults are drawn; default 5).
	// Finite plans are what makes "recovery terminates" checkable.
	MaxFaults int
	// Horizon is the largest operation ordinal a fault may be pinned to
	// (default 40). Operations beyond every component's horizon run clean.
	Horizon int
}

func (p Profile) withDefaults() Profile {
	if p.MaxFaults <= 0 {
		p.MaxFaults = 5
	}
	if p.Horizon <= 0 {
		p.Horizon = 40
	}
	return p
}

// Schedule is a seed's deterministic fault plan plus an optional Keep mask
// (the shrinker's handle): when Keep is non-nil, only the plan entries at
// those indices are active.
type Schedule struct {
	Seed   uint64
	Faults []Fault // the full plan, in draw order
	Keep   []int   // nil = all active; otherwise active plan indices
}

// Plan expands a seed into a schedule over the given components. The
// expansion is pure: equal (seed, components, profile) always yield the
// identical plan, which is the replay contract.
func Plan(seed uint64, comps []Component, prof Profile) *Schedule {
	prof = prof.withDefaults()
	rng := rng(seed)
	n := 1 + int(rng.next()%uint64(prof.MaxFaults))
	s := &Schedule{Seed: seed}
	if len(comps) == 0 {
		return s
	}
	for i := 0; i < n; i++ {
		comp := comps[rng.next()%uint64(len(comps))]
		if len(comp.Kinds) == 0 {
			continue
		}
		kind := comp.Kinds[rng.next()%uint64(len(comp.Kinds))]
		class := diskClass(kind)
		if class == "" {
			class = netClasses[rng.next()%uint64(len(netClasses))]
		}
		s.Faults = append(s.Faults, Fault{
			Component: comp.Name,
			Kind:      kind,
			Class:     class,
			N:         1 + int(rng.next()%uint64(prof.Horizon)),
			Arg:       rng.next(),
		})
	}
	return s
}

// Active returns the plan entries the Keep mask leaves enabled, in plan
// order.
func (s *Schedule) Active() []Fault {
	if s.Keep == nil {
		return s.Faults
	}
	keep := make(map[int]bool, len(s.Keep))
	for _, i := range s.Keep {
		keep[i] = true
	}
	var out []Fault
	for i, f := range s.Faults {
		if keep[i] {
			out = append(out, f)
		}
	}
	return out
}

// For returns the active faults pinned to one component.
func (s *Schedule) For(component string) []Fault {
	var out []Fault
	for _, f := range s.Active() {
		if f.Component == component {
			out = append(out, f)
		}
	}
	return out
}

// Repro renders the schedule as a replayable token: "seed=N" for a full
// plan, "seed=N keep=i,j" for a shrunk one. ParseRepro inverts it.
func (s *Schedule) Repro() string {
	if s.Keep == nil {
		return fmt.Sprintf("seed=%d", s.Seed)
	}
	keep := append([]int(nil), s.Keep...)
	sort.Ints(keep)
	parts := make([]string, len(keep))
	for i, k := range keep {
		parts[i] = strconv.Itoa(k)
	}
	return fmt.Sprintf("seed=%d keep=%s", s.Seed, strings.Join(parts, ","))
}

// ParseRepro parses a Repro token back into (seed, keep). keep is nil for
// a full-plan token.
func ParseRepro(tok string) (seed uint64, keep []int, err error) {
	keep = nil
	seen := false
	for _, field := range strings.Fields(tok) {
		switch {
		case strings.HasPrefix(field, "seed="):
			seed, err = strconv.ParseUint(field[len("seed="):], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("chaos: bad repro %q: %w", tok, err)
			}
			seen = true
		case strings.HasPrefix(field, "keep="):
			raw := field[len("keep="):]
			keep = []int{}
			if raw == "" {
				continue
			}
			for _, part := range strings.Split(raw, ",") {
				v, perr := strconv.Atoi(part)
				if perr != nil {
					return 0, nil, fmt.Errorf("chaos: bad repro %q: %w", tok, perr)
				}
				keep = append(keep, v)
			}
		default:
			return 0, nil, fmt.Errorf("chaos: bad repro field %q", field)
		}
	}
	if !seen {
		return 0, nil, fmt.Errorf("chaos: repro %q names no seed", tok)
	}
	return seed, keep, nil
}

// Fired records one injected fault, for reports and replay comparison.
type Fired struct {
	Fault Fault  `json:"fault"`
	Op    string `json:"op"`   // the concrete operation it hit
	Path  string `json:"path"` // file path or URL path
}

func (f Fired) String() string { return fmt.Sprintf("%s on %s %s", f.Fault, f.Op, f.Path) }

// InjectedError is the typed error every injected disk or network fault
// surfaces as (silent kinds — BitrotRead, NetCorrupt — corrupt data
// instead of erroring; that is their point).
type InjectedError struct {
	Kind Kind
	Op   string
	Path string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s during %s %s", e.Kind, e.Op, e.Path)
}

// injected counts every fault applied process-wide; /metrics exports it as
// chaos_faults_injected, which must read zero in production.
var injected atomic.Int64

// Injected returns the process-wide count of applied faults.
func Injected() int64 { return injected.Load() }

// splitmix64, the same mix faultinject uses for the engine layer.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix derives a sub-seed from a seed and a label, for callers that need
// several independent deterministic streams out of one schedule seed.
func Mix(seed uint64, label string) uint64 {
	r := rng(seed)
	for _, b := range []byte(label) {
		r = rng(r.next() ^ uint64(b))
	}
	return r.next()
}
