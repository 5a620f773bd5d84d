package core

import (
	"fmt"
	"strings"
)

// PipeLog records dynamic-engine pipeline events for the first cycles of a
// run — an observability aid for debugging machine configurations and for
// teaching what the window is doing (issue, execute, complete, retire,
// squash). Attach one through Limits.Pipe; rendering is bounded, so it is
// safe on long runs.
type PipeLog struct {
	// MaxCycles bounds recording (0 = 200 cycles).
	MaxCycles int64

	Events []PipeEvent
}

// PipeEvent is one pipeline occurrence.
type PipeEvent struct {
	Cycle int64
	Kind  PipeKind
	Seq   int64  // node sequence number (or block seq0 for block events)
	What  string // rendered node or block description
}

// PipeKind classifies pipeline events.
type PipeKind uint8

const (
	PipeIssue PipeKind = iota
	PipeExec
	PipeDone
	PipeRetire
	PipeMispredict
	PipeFault
	PipeSquash
)

func (k PipeKind) String() string {
	switch k {
	case PipeIssue:
		return "issue"
	case PipeExec:
		return "exec"
	case PipeDone:
		return "done"
	case PipeRetire:
		return "retire"
	case PipeMispredict:
		return "mispredict"
	case PipeFault:
		return "fault"
	case PipeSquash:
		return "squash"
	}
	return "?"
}

func (l *PipeLog) limit() int64 {
	if l.MaxCycles > 0 {
		return l.MaxCycles
	}
	return 200
}

func (l *PipeLog) add(cycle int64, kind PipeKind, seq int64, what string) {
	if cycle >= l.limit() {
		return
	}
	l.Events = append(l.Events, PipeEvent{Cycle: cycle, Kind: kind, Seq: seq, What: what})
}

// String renders the log grouped by cycle.
func (l *PipeLog) String() string {
	var sb strings.Builder
	last := int64(-1)
	for _, e := range l.Events {
		if e.Cycle != last {
			fmt.Fprintf(&sb, "cycle %d:\n", e.Cycle)
			last = e.Cycle
		}
		fmt.Fprintf(&sb, "  %-10s #%-5d %s\n", e.Kind, e.Seq, e.What)
	}
	return sb.String()
}

// Hooks called by the dynamic engine. Each is a nil test small enough to
// inline at its call site; the recording itself stays out of line, so a
// run without a log pays one predictable branch per event.

func (e *dynamicEngine) logIssue(nd nref) {
	if e.pipe != nil {
		e.logNode(PipeIssue, nd)
	}
}

func (e *dynamicEngine) logExec(nd nref) {
	if e.pipe != nil {
		e.logNode(PipeExec, nd)
	}
}

func (e *dynamicEngine) logDone(nd nref) {
	if e.pipe != nil {
		e.logNode(PipeDone, nd)
	}
}

func (e *dynamicEngine) logOffender(kind PipeKind, nd nref) {
	if e.pipe != nil {
		e.logNode(kind, nd)
	}
}

// logNode records a node event.
func (e *dynamicEngine) logNode(kind PipeKind, nd nref) {
	e.pipe.add(e.cycle, kind, e.nodes.d[nd].seq, e.nodes.d[nd].n.String())
}

func (e *dynamicEngine) logRetire(ab bref) {
	if e.pipe != nil {
		e.pipe.add(e.cycle, PipeRetire, e.blocks.seq0[ab],
			fmt.Sprintf("block b%d (%d nodes)", e.blocks.xb[ab].ID, e.blocks.issued[ab]))
	}
}

func (e *dynamicEngine) logSquash(count int) {
	if e.pipe != nil && count > 0 {
		e.pipe.add(e.cycle, PipeSquash, -1, fmt.Sprintf("%d blocks discarded", count))
	}
}
