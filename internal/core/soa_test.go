package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
)

// These tests pin down the block-grain store contract (soa.go, dec.go):
// a freed block range is reused only once its seq and cycle watermarks are
// met and only by a block of the same length; the seq-tagged ready queues
// pop exactly the live entries in seq order however squashes and slot
// reuse interleave; and every block template names, for each operand, the
// producer the rename table would have named.

func newTestStore() *nodeStore {
	return &nodeStore{edges: newEdgeArena()}
}

func TestRangeReuseWaitsForWatermarks(t *testing.T) {
	s := newTestStore()
	a := s.allocRange(4, noSeqFloor, 0)
	s.putRange(a, 4, 10, 20)
	for _, tc := range []struct {
		seqFloor, cycle int64
	}{{5, 25}, {10, 15}, {9, 19}} {
		if got := s.allocRange(4, tc.seqFloor, tc.cycle); got == a {
			t.Fatalf("range %d reused at seqFloor=%d cycle=%d, before its watermarks (10, 20)",
				a, tc.seqFloor, tc.cycle)
		}
	}
	if got := s.allocRange(4, 10, 20); got != a {
		t.Fatalf("range %d not reused once its watermarks were met (got %d)", a, got)
	}
}

func TestRangeReuseOnlyAtOwnLength(t *testing.T) {
	s := newTestStore()
	a := s.allocRange(3, noSeqFloor, 0)
	s.putRange(a, 3, 0, 0)
	for _, n := range []int{1, 2, 4, 7} {
		got := s.allocRange(n, noSeqFloor, 100)
		if got < a+3 && got+nref(n) > a {
			t.Fatalf("a %d-slot block got range %d overlapping the freed 3-slot range %d", n, got, a)
		}
	}
	if got := s.allocRange(3, noSeqFloor, 100); got != a {
		t.Fatalf("freed 3-slot range %d not reused by a 3-slot block (got %d)", a, got)
	}
}

// TestRangeStoreRandomized drives allocRange/putRange with random lengths,
// watermarks and floors, checking against a model that no two live or
// quarantined ranges ever overlap and that every reuse is of a range freed
// at the same length whose watermarks were both met at some allocation
// since it was freed. (The floor is not monotonic — it jumps to noSeqFloor
// whenever the window empties — and a range proven safe once stays safe:
// blocks opened later cannot reference it.)
func TestRangeStoreRandomized(t *testing.T) {
	type freed struct {
		n              int
		seqWM, cycleWM int64
		safe           bool
	}
	rng := rand.New(rand.NewSource(0xb10c))
	for trial := 0; trial < 30; trial++ {
		s := newTestStore()
		owner := map[nref]int{}  // slot -> live range base+1 (0 = free)
		live := map[nref]int{}   // live range base -> length
		quar := map[nref]freed{} // quarantined or free range base -> how it was freed
		var cycle, seq int64
		for op := 0; op < 2000; op++ {
			cycle += int64(rng.Intn(3))
			seq += int64(rng.Intn(5))
			// The floor trails the issue sequence, as the oldest active
			// block's seq0 does.
			floor := seq - int64(rng.Intn(40))
			if rng.Intn(10) == 0 {
				floor = noSeqFloor
			}
			if len(live) == 0 || rng.Intn(2) == 0 {
				for b, f := range quar {
					if f.seqWM <= floor && f.cycleWM <= cycle {
						f.safe = true
						quar[b] = f
					}
				}
				n := 1 + rng.Intn(6)
				base := s.allocRange(n, floor, cycle)
				if f, ok := quar[base]; ok {
					if f.n != n {
						t.Fatalf("trial %d op %d: %d-slot range %d reused for a %d-slot block", trial, op, f.n, base, n)
					}
					if !f.safe {
						t.Fatalf("trial %d op %d: range %d reused at floor=%d cycle=%d before watermarks (%d, %d)",
							trial, op, base, floor, cycle, f.seqWM, f.cycleWM)
					}
					delete(quar, base)
				}
				for i := base; i < base+nref(n); i++ {
					if owner[i] != 0 {
						t.Fatalf("trial %d op %d: slot %d handed out twice", trial, op, i)
					}
					for qb, f := range quar {
						if i >= qb && i < qb+nref(f.n) {
							t.Fatalf("trial %d op %d: slot %d lies in quarantined range %d", trial, op, i, qb)
						}
					}
					owner[i] = int(base) + 1
				}
				live[base] = n
				continue
			}
			// Free a random live range under the current watermarks.
			bases := make([]nref, 0, len(live))
			for b := range live {
				bases = append(bases, b)
			}
			sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
			base := bases[rng.Intn(len(bases))]
			n := live[base]
			delete(live, base)
			for i := base; i < base+nref(n); i++ {
				owner[i] = 0
			}
			cwm := cycle + timelineSlots + int64(rng.Intn(3))
			s.putRange(base, n, seq, cwm)
			quar[base] = freed{n: n, seqWM: seq, cycleWM: cwm}
		}
	}
}

// rqModel is the ready-queue reference: the live entries as a sorted slice.
type rqModel []qent

func (m *rqModel) insert(en qent) {
	i := sort.Search(len(*m), func(i int) bool { return (*m)[i].seq >= en.seq })
	*m = append(*m, qent{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = en
}

func (m *rqModel) drop(keep func(qent) bool) {
	out := (*m)[:0]
	for _, en := range *m {
		if keep(en) {
			out = append(out, en)
		}
	}
	*m = out
}

// TestReadyQRandomized interleaves issue (a slot takes a fresh seq), push,
// pop, suffix squash and slot reuse the way the engine does, and checks
// after every step that the queue's oldest live entry is the model's.
func TestReadyQRandomized(t *testing.T) {
	const slots = 64
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 50; trial++ {
		d := make([]nodeSlot, slots)
		for i := range d {
			d[i].status = nsSquashed // never issued: not pushable
		}
		var q readyQ
		var m rqModel
		queued := make([]bool, slots)
		var seq int64
		check := func(op int) {
			t.Helper()
			nd, ok := q.peek(d)
			switch {
			case len(m) == 0 && ok:
				t.Fatalf("trial %d op %d: peek returned node %d (seq %d) from a queue with no live entry",
					trial, op, nd, d[nd].seq)
			case len(m) > 0 && (!ok || nd != m[0].ref || q.a[0] != m[0]):
				t.Fatalf("trial %d op %d: peek = (%d, %v), want node %d seq %d", trial, op, nd, ok, m[0].ref, m[0].seq)
			}
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 3: // issue: a squashed or executed slot is reused under a new seq
				nd := nref(rng.Intn(slots))
				if queued[nd] || d[nd].status&nsSquashed == 0 && d[nd].status&nsStateMask != nsExecuting {
					break
				}
				d[nd] = nodeSlot{seq: seq, status: nsWaiting}
				seq++
			case r < 6: // push a waiting node
				nd := nref(rng.Intn(slots))
				if queued[nd] || d[nd].status != nsWaiting {
					break
				}
				d[nd].status = nsReady
				q.push(d[nd].seq, nd)
				m.insert(qent{seq: d[nd].seq, ref: nd})
				queued[nd] = true
			case r < 9: // pop the oldest live entry and execute it
				nd, ok := q.peek(d)
				if !ok {
					break
				}
				q.pop()
				queued[nd] = false
				d[nd].status = nsExecuting
				m = m[1:]
			default: // squash every node at or after a random seq
				cut := seq - int64(rng.Intn(int(seq)+1))
				for i := range d {
					if d[i].seq >= cut && d[i].status&nsSquashed == 0 {
						d[i].status |= nsSquashed
						queued[i] = false
					}
				}
				m.drop(func(en qent) bool { return en.seq < cut })
			}
			check(op)
		}
		for len(m) > 0 {
			check(-1)
			q.pop()
			m = m[1:]
		}
		if nd, ok := q.peek(d); ok {
			t.Fatalf("trial %d: drained queue still yields node %d", trial, nd)
		}
	}
}

func TestBlockStoreRecycleIsFresh(t *testing.T) {
	var s blockStore
	ab := s.alloc()
	s.xb[ab] = &ir.Block{ID: 4}
	s.tmpl[ab] = &blockTmpl{}
	s.seq0[ab] = 9
	s.base[ab] = 16
	s.issued[ab] = 2
	s.asserts[ab] = append(s.asserts[ab], 1)
	s.stores[ab] = append(s.stores[ab], 2)
	s.sys[ab] = append(s.sys[ab], 1)
	s.nDone[ab] = 2
	s.flags[ab] = abIssuedAll | abWillFault | abTermIsBranch | abTermPredTaken
	s.term[ab] = 2
	s.rsSnap[ab] = &rsNode{depth: 1}
	s.cursorSnap[ab] = 3
	s.predSnap[ab] = 5
	s.predToken[ab] = 6
	s.put(ab)
	got := s.alloc()
	if got != ab {
		t.Fatalf("expected recycled block %d, got %d", ab, got)
	}
	if s.xb[got] != nil || s.tmpl[got] != nil || s.seq0[got] != 0 || s.nDone[got] != 0 || s.flags[got] != 0 {
		t.Errorf("block %d: scalar fields not reset", got)
	}
	if s.base[got] != nilRef || s.issued[got] != 0 {
		t.Errorf("block %d: node range not reset (base %d, issued %d)", got, s.base[got], s.issued[got])
	}
	if len(s.asserts[got]) != 0 || len(s.stores[got]) != 0 || len(s.sys[got]) != 0 {
		t.Errorf("block %d: node lists not truncated", got)
	}
	if s.term[got] != nilRef || s.rsSnap[got] != nil || s.cursorSnap[got] != 0 ||
		s.predSnap[got] != 0 || s.predToken[got] != 0 {
		t.Errorf("block %d: checkpoint fields not reset", got)
	}
}

func TestEdgeArenaReuse(t *testing.T) {
	a := newEdgeArena()
	var h1, h2 int32 = nilRef, nilRef
	a.add(&h1, 10)
	a.add(&h1, 11)
	a.add(&h1, 12)
	a.freeList(&h1)
	if h1 != nilRef {
		t.Fatalf("freeList left head %d", h1)
	}
	// The freed cells must be reused before the arena grows.
	before := len(a.to)
	a.add(&h2, 20)
	a.add(&h2, 21)
	a.add(&h2, 22)
	if len(a.to) != before {
		t.Errorf("arena grew to %d cells despite %d free", len(a.to), before)
	}
	var got []nref
	for i := h2; i != nilRef; i = a.next[i] {
		got = append(got, a.to[i])
	}
	if len(got) != 3 {
		t.Fatalf("rebuilt list has %d entries, want 3", len(got))
	}
}

// checkTemplate verifies one block's template against a direct scan: each
// operand's producer is the last earlier in-block writer of its register
// (tmplCross when there is none, tmplNone for an unused slot), and each
// node's consumer list is exactly the ascending list of later operands
// naming it.
func checkTemplate(t *testing.T, where string, b *ir.Block, tm *blockTmpl) {
	t.Helper()
	nodes := make([]*ir.Node, 0, len(b.Body)+1)
	for i := range b.Body {
		nodes = append(nodes, &b.Body[i])
	}
	nodes = append(nodes, &b.Term)
	if len(tm.nodes) != len(nodes) {
		t.Fatalf("%s: template has %d nodes, block has %d", where, len(tm.nodes), len(nodes))
	}
	want := func(i int, r ir.Reg) int32 {
		if r == ir.NoReg {
			return tmplNone
		}
		for j := i - 1; j >= 0; j-- {
			if nodes[j].Op.HasDst() && nodes[j].Dst == r {
				return int32(j)
			}
		}
		return tmplCross
	}
	wantCons := make([][]int32, len(nodes))
	for i, n := range nodes {
		tn := &tm.nodes[i]
		if tn.n != n || tn.meta != decMeta(n.Op) {
			t.Fatalf("%s node %d: template node/meta does not match the block", where, i)
		}
		for _, op := range []struct {
			got int32
			r   ir.Reg
		}{{tn.prodA, n.A}, {tn.prodB, n.B}} {
			w := want(i, op.r)
			if op.got != w {
				t.Fatalf("%s node %d (%s): operand r%d producer %d, want %d", where, i, n, op.r, op.got, w)
			}
			if w >= 0 {
				wantCons[w] = append(wantCons[w], int32(i))
			}
		}
	}
	for i := range nodes {
		tn := &tm.nodes[i]
		got := tm.cons[tn.consLo:tn.consHi]
		if len(got) != len(wantCons[i]) {
			t.Fatalf("%s node %d: %d in-block consumers, want %d", where, i, len(got), len(wantCons[i]))
		}
		for k := range got {
			if got[k] != wantCons[i][k] {
				t.Fatalf("%s node %d: consumers %v, want %v", where, i, got, wantCons[i])
			}
		}
	}
}

// TestBlockTemplatesMatchRenaming checks every block of the five
// benchmarks' single, enlarged and perfect images.
func TestBlockTemplatesMatchRenaming(t *testing.T) {
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		in0, in1 := b.Inputs(1)
		prof := interp.NewProfile()
		if _, err := interp.Run(prog, in0, in1, interp.Options{Profile: prof, MaxNodes: 200_000_000}); err != nil {
			t.Fatal(err)
		}
		ef := enlarge.Build(prog, prof, enlarge.DefaultOptions())
		for _, bm := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB, machine.Perfect} {
			cfg := machine.Config{Disc: machine.Dyn256, Issue: machine.IssueModels[7], Mem: machine.MemConfigs[0], Branch: bm}
			img, err := loader.Load(prog, cfg, ef)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, bm, err)
			}
			var dec decTable
			for _, blk := range img.Prog.Blocks {
				if blk == nil {
					continue
				}
				where := fmt.Sprintf("%s %s block %d", b.Name, bm, blk.ID)
				checkTemplate(t, where, blk, dec.of(img.Prog, blk.ID))
			}
		}
	}
}
