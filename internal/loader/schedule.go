package loader

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"

	"fgpsim/internal/ir"
	"fgpsim/internal/machine"
	"fgpsim/internal/sched"
	"fgpsim/internal/sched/exact"
)

// Schedule is the loader's second step for a statically scheduled machine:
// every block of one translated program packed into multinodewords for one
// issue model, cache hit latency and scheduler kind. The words of all
// blocks sit in flat int32 arrays indexed by BlockID, so a schedule costs
// four bytes per node index and per word rather than a slice header per
// word. Readers go through Image.Words.
type Schedule struct {
	nodes  []int32  // node indices, word by word, block by block
	words  []int32  // word w is nodes[words[w]:words[w+1]]
	blocks []int32  // block id's words are words[blocks[id]:blocks[id+1]]
	assert []uint64 // bit id is set when block id's body holds an Assert
}

// Pack schedules every block of a translated program for machine cfg with
// the list scheduler, or, when cfg.Sched is machine.ExactSched, with
// branch-and-bound optimal packing for small blocks under the default
// deterministic budget (so the image is reproducible) and the list
// schedule beyond it; the result is legal under the same rules either way.
// A dynamically scheduled machine needs no schedule, and gets nil.
func Pack(p *ir.Program, cfg machine.Config) *Schedule {
	if cfg.Disc != machine.Static {
		return nil
	}
	total := 0
	for _, b := range p.Blocks {
		if b != nil {
			total += len(b.Body) + 1
		}
	}
	s := &Schedule{
		nodes:  make([]int32, 0, total),
		blocks: make([]int32, 1, len(p.Blocks)+1),
		assert: make([]uint64, (len(p.Blocks)+63)/64),
	}
	words := make([]int32, 1, total+1) // trimmed below; a word holds a node at least
	for id, b := range p.Blocks {
		if b != nil {
			var ws sched.Schedule
			if cfg.Sched == machine.ExactSched {
				ws = exact.Schedule(b, cfg.Issue, cfg.Mem.HitLatency, exact.DefaultOptions()).Schedule
			} else {
				ws = sched.Block(b, cfg.Issue, cfg.Mem.HitLatency)
			}
			for _, w := range ws {
				for _, i := range w {
					s.nodes = append(s.nodes, int32(i))
				}
				words = append(words, int32(len(s.nodes)))
			}
			if hasAssert(b) {
				s.assert[id/64] |= 1 << (id % 64)
			}
		}
		s.blocks = append(s.blocks, int32(len(words)-1))
	}
	s.words = slices.Clone(words)
	return s
}

// hasAssert reports whether a block's body holds an Assert, which makes
// the static engine execute it as a transaction.
func hasAssert(b *ir.Block) bool {
	for i := range b.Body {
		if b.Body[i].Op == ir.Assert {
			return true
		}
	}
	return false
}

// BlockWords is one block's multinodewords, a view into a packed Schedule.
// A word holds indices into the block's node list, where index len(Body)
// denotes the terminator; nodes within a word execute in index order.
type BlockWords struct {
	s      *Schedule
	lo, hi int32 // the block's range of s.words
	assert bool
}

// Words returns block id's multinodewords. ok is false when the image
// carries no static schedule or id is not one of its blocks.
func (im *Image) Words(id ir.BlockID) (w BlockWords, ok bool) {
	s := im.Schedule
	if s == nil || id < 0 || int(id) >= len(s.blocks)-1 {
		return BlockWords{}, false
	}
	return BlockWords{s: s, lo: s.blocks[id], hi: s.blocks[id+1], assert: s.assert[id/64]>>(id%64)&1 != 0}, true
}

// Len returns the number of words.
func (w BlockWords) Len() int { return int(w.hi - w.lo) }

// Word returns word i's node indices.
func (w BlockWords) Word(i int) []int32 {
	k := w.lo + int32(i)
	return w.s.nodes[w.s.words[k]:w.s.words[k+1]]
}

// HasAssert reports whether the block's body holds an Assert.
func (w BlockWords) HasAssert() bool { return w.assert }

// Schedule copies the words out as a sched.Schedule, the form package
// sched validates and measures.
func (w BlockWords) Schedule() sched.Schedule {
	out := make(sched.Schedule, w.Len())
	for i := range out {
		word := w.Word(i)
		out[i] = make(sched.Word, len(word))
		for j, idx := range word {
			out[i][j] = int(idx)
		}
	}
	return out
}

// scheduleWire is a Schedule's serialized form.
type scheduleWire struct {
	Nodes, Words, Blocks []int32
	Assert               []uint64
}

// GobEncode serializes the schedule with its image (Image.Marshal).
func (s *Schedule) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(scheduleWire{s.nodes, s.words, s.blocks, s.assert})
	return buf.Bytes(), err
}

// GobDecode parses a serialized schedule; Unmarshal then checks it against
// the image's program.
func (s *Schedule) GobDecode(data []byte) error {
	var w scheduleWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*s = Schedule{nodes: w.Nodes, words: w.Words, blocks: w.Blocks, assert: w.Assert}
	return nil
}

// check verifies a decoded schedule against the program it schedules, so
// that a corrupt image file cannot send the engine outside a block: one
// word range per block, ranges and words in order, every node index inside
// its block, and the assert bits as the bodies say.
func (s *Schedule) check(p *ir.Program) error {
	n := len(p.Blocks)
	if len(s.blocks) != n+1 || s.blocks[0] != 0 || len(s.words) == 0 || s.words[0] != 0 ||
		int(s.blocks[n]) != len(s.words)-1 || int(s.words[len(s.words)-1]) != len(s.nodes) ||
		len(s.assert) != (n+63)/64 {
		return errors.New("schedule does not match the program's blocks")
	}
	for id, b := range p.Blocks {
		lo, hi := s.blocks[id], s.blocks[id+1]
		if hi < lo || int(hi) >= len(s.words) || b == nil && hi != lo {
			return fmt.Errorf("block %d: bad word range %d..%d", id, lo, hi)
		}
		for k := lo; k < hi; k++ {
			if s.words[k+1] < s.words[k] || int(s.words[k+1]) > len(s.nodes) {
				return fmt.Errorf("block %d: bad word %d", id, k)
			}
			for _, i := range s.nodes[s.words[k]:s.words[k+1]] {
				if i < 0 || int(i) > len(b.Body) {
					return fmt.Errorf("block %d: node index %d out of range", id, i)
				}
			}
		}
		if b != nil && (s.assert[id/64]>>(id%64)&1 != 0) != hasAssert(b) {
			return fmt.Errorf("block %d: assert bit disagrees with its body", id)
		}
	}
	return nil
}
