package core

import (
	"math"

	"fgpsim/internal/ir"
)

// This file is the dynamic engine's structure-of-arrays state machinery.
// In-flight nodes and active blocks are not heap objects but dense int32
// indices (nref/bref) into parallel slices owned by nodeStore/blockStore:
// one slice per field, so the scheduler's hot loops (status tests, sequence
// compares, wakeups) walk small contiguous arrays instead of chasing
// pointer-linked dnode graphs. The engine fetches, checkpoints, squashes and
// retires whole basic blocks, and the stores work at the same grain:
//
//   - openBlock reserves a contiguous node-slot range as long as the
//     block's template (dec.go), and node i of the block lives at slot
//     base+i. A block is its base plus an issued count, so "the block's
//     nodes" is an index range, same-block producers and consumers are
//     base-relative, and freeing a block is one range entry, not one per
//     node.
//   - Cross-block consumer edges live in a shared arena (edgeArena) as
//     intrusive singly linked lists; same-block edges come from the
//     template and never touch the arena.
//   - The ready queues hold (seq, ref) entries. Squash leaves them in place
//     as tombstones, and peek discards an entry whose slot has since been
//     squashed or reissued under another seq. The intrusive heap this
//     replaces kept a per-node heap position, rewritten on every sift, so
//     squash could unlink entries. The heaps are small (3.7 entries on
//     average at pop on the deep-window sweep), and few squashed nodes
//     are queued when their block goes (most wait on operands or have
//     executed): 22k of that sweep's 32.7M pops meet a tombstone.
//     Dropping the position column and the unlinking costs less than
//     those few extra pops.
//
// Recycling a node range is only safe once no stale reference to its
// previous incarnation can be dereferenced. Squash clears the blocked-load,
// offender and disambiguation lists eagerly, and retirement drains the
// disambiguation queue's done prefix; the remaining references (rename
// snapshots of still-active blocks, cross-block consumer edges and the
// completion wheel) are bounded by two watermarks per freed range:
//
//   - seqWM: the engine's issue sequence at free time. Every block that
//     could hold a snapshot or consumer-edge reference to the freed nodes
//     was opened before this point, so the range stays quarantined until
//     the oldest active block is younger than seqWM.
//   - cycleWM: max(free cycle + timelineSlots, latest completion + 1) over
//     the range's issued nodes — overflow-wheel entries can outlive the
//     ring. A squashed node's wheel entry fires (and is skipped via its
//     squashed flag) before this point, so the range stays unreused until
//     the wheel has provably passed it.
//
// A ready-queue tombstone needs neither watermark: until its slot is
// reissued it still carries the squashed flag, and afterwards a new seq.
// seqWM and the common-case cycleWM are nondecreasing over a run; a FIFO
// quarantine queue checked when a block opens implements the gate (an
// occasional larger cycleWM only delays promotions behind it, which is
// conservative). Promoted ranges are kept per length and reused only by a
// block of exactly that length, so ranges never split or merge.

// nref indexes a node's slots in a nodeStore; bref indexes a block's slots
// in a blockStore. nilRef marks "none" in either space.
type (
	nref = int32
	bref = int32
)

const nilRef = int32(-1)

type nstate = uint8

// Node status words: the low two bits hold the lifecycle state, the high
// bits are flags. A status test is one byte load and a mask.
const (
	nsWaiting nstate = iota
	nsReady          // in a ready queue or a blocked list
	nsExecuting
	nsDone

	nsStateMask uint8 = 0b11
	nsSquashed  uint8 = 1 << 2
	nsHandled   uint8 = 1 << 3 // offender (mispredict/fault) already processed
	nsInjected  uint8 = 1 << 4 // executed early by an injected violation
)

// renEntry is one rename-table entry: the in-flight producer of a
// register's current value (prod != nilRef), or the value itself. At eight
// bytes, a full 64-register snapshot copy is 512 bytes.
type renEntry struct {
	prod nref
	val  int32
}

// rsNode is a persistent (immutable) speculative return stack.
type rsNode struct {
	target ir.BlockID
	parent *rsNode
	depth  int
}

// noSeqFloor is the seq floor used when no block is active: every
// quarantined range's seq watermark is satisfied.
const noSeqFloor = int64(math.MaxInt64)

// slabSize is the rsNode slab granularity.
const slabSize = 256

// ---------- node store ----------

// nodeSlot packs the per-node fields that issue, scheduling, execution, and
// completion touch together into one 64-byte record — exactly one cache
// line — so the common case (issue writes a whole node, completion reads
// one) costs a single line instead of a line per column.
type nodeSlot struct {
	n      *ir.Node // source node (immediates, targets, rendering)
	seq    int64
	doneAt int64

	srcA, srcB nref // producers still relevant at issue (nilRef = value)
	valA, valB int32
	pending    int32
	val        int32

	// consHead heads the node's cross-block consumer edge list in the
	// shared arena.
	consHead int32
	blk      bref
	addr     uint32 // memory effective address (valid once executing)
	op       ir.Op  // opcode copy: hot-path class tests without a deref
	status   nstate
	msize    int8 // access width (valid once executing)
}

// nodeStore holds every in-flight node, indexed by nref, in per-block
// contiguous ranges. Freed ranges pass through a watermark-gated
// quarantine into per-length free lists, so the backing array stops
// growing once the window's working set of block lengths has been seen.
type nodeStore struct {
	d []nodeSlot

	edges edgeArena

	free       [][]nref // free range bases, indexed by range length
	quarantine rangeQueue

	// gateSeq/gateCycle mirror the quarantine head's watermarks (MaxInt64
	// when it is empty) so the per-block promotion check is two compares
	// against the store itself instead of a ring-buffer load. The zero
	// value (0,0) is conservative: the first allocation walks the empty
	// queue once and parks the gates at MaxInt64.
	gateSeq   int64
	gateCycle int64
}

// allocRange returns the base of n contiguous node slots for a block.
// seqFloor is the oldest active block's seq0 (noSeqFloor when the window
// is empty) and cycle the current cycle; together they decide which
// quarantined ranges are safe to promote.
func (s *nodeStore) allocRange(n int, seqFloor, cycle int64) nref {
	if (n >= len(s.free) || len(s.free[n]) == 0) && s.gateSeq <= seqFloor && s.gateCycle <= cycle {
		s.promote(seqFloor, cycle)
	}
	if n < len(s.free) {
		if k := len(s.free[n]); k > 0 {
			base := s.free[n][k-1]
			s.free[n] = s.free[n][:k-1]
			return base
		}
	}
	base := nref(len(s.d))
	for i := 0; i < n; i++ {
		s.d = append(s.d, nodeSlot{srcA: nilRef, srcB: nilRef, blk: nilRef, consHead: nilRef})
	}
	return base
}

// promote moves every quarantined range whose watermarks are met, from the
// head of the FIFO, onto the free list for its length.
func (s *nodeStore) promote(seqFloor, cycle int64) {
	for s.quarantine.n > 0 {
		h := s.quarantine.front()
		if h.seqWM > seqFloor || h.cycleWM > cycle {
			break
		}
		for int(h.n) >= len(s.free) {
			s.free = append(s.free, nil)
		}
		s.free[h.n] = append(s.free[h.n], h.base)
		s.quarantine.popFront()
	}
	if s.quarantine.n > 0 {
		h := s.quarantine.front()
		s.gateSeq, s.gateCycle = h.seqWM, h.cycleWM
	} else {
		s.gateSeq, s.gateCycle = math.MaxInt64, math.MaxInt64
	}
}

// putRange quarantines a freed block's n-slot range under the given
// watermarks. The caller has already released the issued nodes' consumer
// edge lists (a done producer's at completion, a squashed one's at
// squash).
func (s *nodeStore) putRange(base nref, n int, seqWM, cycleWM int64) {
	if s.quarantine.n == 0 {
		s.gateSeq, s.gateCycle = seqWM, cycleWM
	}
	s.quarantine.pushBack(pendingRange{base: base, n: int32(n), seqWM: seqWM, cycleWM: cycleWM})
}

// Recycled slots are not zeroed: issueNode rewrites every field the engine
// reads before use (n/op/blk/seq at issue, status and pending before
// wiring, src/val at wiring), and the remaining columns carry their own
// invariants across a free/reuse cycle — consHead is nilRef (completion
// or squash released the edge list), and a stale doneAt is below the
// current cycle by the quarantine's cycle watermark, so squashFrom's
// `max(cycle+timelineSlots, doneAt+1)` computes the same watermark a zeroed
// slot would. Until a slot is reissued it keeps its old seq and status, so
// a ready-queue tombstone for its previous incarnation still reads as
// squashed. soa_test.go pins these invariants.

func (s *nodeStore) state(nd nref) nstate       { return s.d[nd].status & nsStateMask }
func (s *nodeStore) setState(nd nref, v nstate) { s.d[nd].status = s.d[nd].status&^nsStateMask | v }

// faulted reports whether a done Assert's condition disagrees with its
// expectation.
func (s *nodeStore) faulted(nd nref) bool {
	sl := &s.d[nd]
	return sl.op == ir.Assert && (sl.val != 0) != sl.n.Expect
}

// ---------- consumer edge arena ----------

// edgeArena stores every node's cross-block consumer list as an intrusive
// singly linked list in two parallel slices, recycled through a free list.
// Wakeup order does not matter (readiness is re-ordered by the seq-keyed
// heaps), so lists are prepended in O(1).
type edgeArena struct {
	to   []nref
	next []int32
	free int32
}

func newEdgeArena() edgeArena { return edgeArena{free: nilRef} }

// add prepends an edge to `to` onto the list headed at *head.
func (a *edgeArena) add(head *int32, to nref) {
	var i int32
	if a.free != nilRef {
		i = a.free
		a.free = a.next[i]
		a.to[i] = to
		a.next[i] = *head
	} else {
		i = int32(len(a.to))
		a.to = append(a.to, to)
		a.next = append(a.next, *head)
	}
	*head = i
}

// freeList releases a whole list back to the arena and clears the head.
func (a *edgeArena) freeList(head *int32) {
	i := *head
	if i == nilRef {
		return
	}
	last := i
	for a.next[last] != nilRef {
		last = a.next[last]
	}
	a.next[last] = a.free
	a.free = i
	*head = nilRef
}

// ---------- quarantine ----------

// pendingRange is one quarantined block range awaiting its watermarks.
type pendingRange struct {
	base    nref
	n       int32
	seqWM   int64 // reusable once the oldest active block's seq0 reaches this
	cycleWM int64 // ... and the cycle counter reaches this
}

// rangeQueue is the FIFO behind the range quarantine.
type rangeQueue struct {
	buf  []pendingRange
	head int
	n    int
}

// The ring capacity is always a power of two (grown by doubling from 16),
// so wraparound is a mask, not a division.

func (r *rangeQueue) front() pendingRange { return r.buf[r.head] }

func (r *rangeQueue) pushBack(pr pendingRange) {
	if r.n == len(r.buf) {
		nb := make([]pendingRange, max(2*len(r.buf), 16))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = pr
	r.n++
}

func (r *rangeQueue) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// ---------- block store ----------

// Block flag bits.
const (
	abIssuedAll     uint8 = 1 << 0 // terminator has been issued
	abWillFault     uint8 = 1 << 1 // perfect mode: chain diverges from trace
	abTermIsBranch  uint8 = 1 << 2
	abTermPredTaken uint8 = 1 << 3
)

// blockStore holds every active (issued, unretired) basic block's fields as
// parallel slices indexed by bref. Blocks need no quarantine: every
// dangling reference to a freed block lives in its own (simultaneously
// freed) nodes, which the range watermarks already guard.
type blockStore struct {
	xb      []*ir.Block
	tmpl    []*blockTmpl // issue template (dec.go)
	seq0    []int64
	base    []nref   // first slot of the block's node range; node i is base+i
	issued  []int32  // nodes issued so far (the range's live prefix)
	asserts [][]nref // asserts in issue order, for oldest-first fault gating
	stores  [][]nref
	sys     [][]nref // ready Sys nodes parked until the block reaches the window front
	nDone   []int32
	flags   []uint8
	term    []nref

	// Checkpoints taken at block entry.
	renSnap    [][ir.NumRegs]renEntry
	rsSnap     []*rsNode
	cursorSnap []int32
	predSnap   []uint64

	// predToken is the predictor state the terminator's prediction was made
	// under (terminator bookkeeping lives with the block: only one node per
	// block is a branch).
	predToken []uint64

	free []bref
}

// alloc returns a reset block index.
func (s *blockStore) alloc() bref {
	if n := len(s.free); n > 0 {
		ab := s.free[n-1]
		s.free = s.free[:n-1]
		s.reset(ab)
		return ab
	}
	ab := bref(len(s.seq0))
	s.xb = append(s.xb, nil)
	s.tmpl = append(s.tmpl, nil)
	s.seq0 = append(s.seq0, 0)
	s.base = append(s.base, nilRef)
	s.issued = append(s.issued, 0)
	s.asserts = append(s.asserts, nil)
	s.stores = append(s.stores, nil)
	s.sys = append(s.sys, nil)
	s.nDone = append(s.nDone, 0)
	s.flags = append(s.flags, 0)
	s.term = append(s.term, nilRef)
	s.renSnap = append(s.renSnap, [ir.NumRegs]renEntry{})
	s.rsSnap = append(s.rsSnap, nil)
	s.cursorSnap = append(s.cursorSnap, 0)
	s.predSnap = append(s.predSnap, 0)
	s.predToken = append(s.predToken, 0)
	return ab
}

func (s *blockStore) put(ab bref) { s.free = append(s.free, ab) }

// reset returns a block slot to its freshly allocated state, keeping the
// backing arrays of its assert/store lists. The rename snapshot is not
// cleared: openBlock overwrites it wholesale.
func (s *blockStore) reset(ab bref) {
	s.xb[ab] = nil
	s.tmpl[ab] = nil
	s.seq0[ab] = 0
	s.base[ab] = nilRef
	s.issued[ab] = 0
	s.asserts[ab] = s.asserts[ab][:0]
	s.stores[ab] = s.stores[ab][:0]
	s.sys[ab] = s.sys[ab][:0]
	s.nDone[ab] = 0
	s.flags[ab] = 0
	s.term[ab] = nilRef
	s.rsSnap[ab] = nil
	s.cursorSnap[ab] = 0
	s.predSnap[ab] = 0
	s.predToken[ab] = 0
}

// nodes returns the block's issued node range [lo, hi).
func (s *blockStore) nodes(ab bref) (lo, hi nref) {
	return s.base[ab], s.base[ab] + s.issued[ab]
}

// complete reports whether every issued node of the block has executed.
func (s *blockStore) complete(ab bref) bool {
	return s.flags[ab]&abIssuedAll != 0 && s.nDone[ab] == s.issued[ab]
}

// ---------- return-stack pool ----------

// rsPool bump-allocates speculative return-stack nodes. rsNodes form a
// persistent (immutable) linked structure shared by block checkpoints, so
// individual nodes are never freed; slabs keep the persistent stack at one
// allocation per slabSize calls instead of one per call.
type rsPool struct {
	slab []rsNode
	used int
}

func (p *rsPool) get() *rsNode {
	if p.used == len(p.slab) {
		p.slab = make([]rsNode, slabSize)
		p.used = 0
	}
	n := &p.slab[p.used]
	p.used++
	return n
}

// ---------- ready queue ----------

// qent is one ready-queue entry: the node index plus its issue sequence,
// copied inline so heap sifts compare without touching the node arrays,
// and so an entry outliving its node is recognizable (the slot's seq no
// longer matches).
type qent struct {
	seq int64
	ref nref
}

// readyQ is a binary min-heap of ready nodes keyed by issue sequence — the
// scheduler always picks the oldest ready node (sequence numbers are
// unique, so the pop order is fully determined and the figure tables are
// bit-identical across engine rewrites). Squash does not unlink entries:
// peek discards, at the top, every entry whose node has been squashed or
// whose slot has been reissued under a newer seq, so only live entries are
// ever returned.
type readyQ struct {
	a []qent
}

func (q *readyQ) push(seq int64, nd nref) {
	q.a = append(q.a, qent{})
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.a[parent].seq <= seq {
			break
		}
		q.a[i] = q.a[parent]
		i = parent
	}
	q.a[i] = qent{seq: seq, ref: nd}
}

// peek returns the oldest live entry's node without removing it, popping
// dead entries off the top on the way; ok is false when no live entry
// remains.
func (q *readyQ) peek(d []nodeSlot) (nd nref, ok bool) {
	for len(q.a) > 0 {
		top := q.a[0]
		if sl := &d[top.ref]; sl.seq == top.seq && sl.status&nsSquashed == 0 {
			return top.ref, true
		}
		q.pop()
	}
	return nilRef, false
}

// pop removes the top entry.
func (q *readyQ) pop() {
	last := len(q.a) - 1
	en := q.a[last]
	q.a = q.a[:last]
	if last == 0 {
		return
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && q.a[r].seq < q.a[child].seq {
			child = r
		}
		if en.seq <= q.a[child].seq {
			break
		}
		q.a[i] = q.a[child]
		i = child
	}
	q.a[i] = en
}

// ---------- completion event wheel ----------

// timelineSlots sizes the completion ring; the largest latency the engine
// produces (the 10-cycle cache miss) fits comfortably, and entries at or
// beyond the ring's span are parked in an overflow list instead of
// colliding with a nearer slot (the wraparound guard wheel_test.go pins).
const timelineSlots = 16

// wheelEnt is one overflow entry: a completion scheduled at or beyond the
// ring's span.
type wheelEnt struct {
	ref    nref
	doneAt int64
}

// eventWheel is the completion timeline: a ring of per-cycle completion
// lists keyed by ready-cycle. Slot doneAt%timelineSlots holds the nodes
// completing at that cycle; an add more than timelineSlots-1 cycles ahead
// would alias an earlier slot, so such entries wait in overflow and migrate
// into the ring as it advances. The overflow check costs one length test
// per cycle and the list stays empty for every latency the engine models.
type eventWheel struct {
	slot     [timelineSlots][]nref
	overflow []wheelEnt
}

// add schedules ref to complete at doneAt (now is the current cycle).
func (w *eventWheel) add(ref nref, doneAt, now int64) {
	if doneAt-now >= timelineSlots {
		w.overflow = append(w.overflow, wheelEnt{ref: ref, doneAt: doneAt})
		return
	}
	s := int(doneAt % timelineSlots)
	w.slot[s] = append(w.slot[s], ref)
}

// take returns the completion list for cycle, emptying its slot. The
// returned slice is valid until the slot next fills.
func (w *eventWheel) take(cycle int64) []nref {
	if len(w.overflow) > 0 {
		w.drain(cycle)
	}
	s := int(cycle % timelineSlots)
	nodes := w.slot[s]
	w.slot[s] = nodes[:0]
	return nodes
}

// drain migrates overflow entries now within the ring's span into their
// slots.
func (w *eventWheel) drain(cycle int64) {
	keep := w.overflow[:0]
	for _, en := range w.overflow {
		if en.doneAt-cycle < timelineSlots {
			s := int(en.doneAt % timelineSlots)
			w.slot[s] = append(w.slot[s], en.ref)
		} else {
			keep = append(keep, en)
		}
	}
	w.overflow = keep
}

// ---------- ring buffers ----------

// abRing is the active-block window: a ring buffer of block indices in
// issue order (oldest first), reusing one backing array for the whole run.
// Capacity is a power of two (grown by doubling from 8), so wraparound is a
// mask.
type abRing struct {
	buf  []bref
	head int
	n    int
}

func (r *abRing) len() int { return r.n }

func (r *abRing) at(i int) bref { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *abRing) front() bref { return r.buf[r.head] }

func (r *abRing) pushBack(ab bref) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ab
	r.n++
}

func (r *abRing) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// truncate drops blocks [from:] (the squashed suffix).
func (r *abRing) truncate(from int) {
	r.n = from
}

func (r *abRing) grow() {
	nb := make([]bref, max(2*len(r.buf), 8))
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf, r.head = nb, 0
}

// ndRing is a FIFO of node indices with O(1) operations at both ends, used
// for the store disambiguation queue (pushBack at issue, popFront as heads
// resolve, popBack as squashes discard the youngest suffix). Capacity is a
// power of two (grown by doubling from 16), so wraparound is a mask.
type ndRing struct {
	buf  []nref
	head int
	n    int
}

func (r *ndRing) len() int { return r.n }

func (r *ndRing) front() nref { return r.buf[r.head] }

func (r *ndRing) back() nref { return r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *ndRing) pushBack(nd nref) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = nd
	r.n++
}

func (r *ndRing) popFront() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *ndRing) popBack() {
	r.n--
}

func (r *ndRing) grow() {
	nb := make([]nref, max(2*len(r.buf), 16))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}
