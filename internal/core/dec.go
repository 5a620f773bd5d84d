package core

import "fgpsim/internal/ir"

// decTable is the dynamic engine's per-block issue template cache. Blocks
// are immutable once loaded, so everything issue and wakeup need that
// depends only on a block's code — each node's pointer and class bits, the
// in-block producer of each operand, and each node's in-block consumers —
// is computed the first time a block is fetched and memoized for the rest
// of the run, the way the paper's translating loader does its per-block
// work once. Issuing a block then reads the rename table only for operands
// produced before the block, and adds consumer edges to the shared arena
// only for those; same-block dependences (most of them) are woken straight
// from the template. Each engine owns its table. Fill-unit images
// materialize new blocks at run time, so of() grows the table lazily.
type decTable struct {
	blocks []*blockTmpl // indexed by BlockID
}

// blockTmpl is one block's issue template: one tmplNode per node in issue
// order (body, then the terminator), with the consumer lists packed into a
// single slice.
type blockTmpl struct {
	nodes []tmplNode
	cons  []int32 // in-block consumer indices, sliced per node by consLo/consHi
}

// tmplNode is one node of a block template.
type tmplNode struct {
	n *ir.Node

	// prodA/prodB are the in-block indices of the operands' producers: the
	// last earlier node of the block writing the register. tmplCross means
	// the value comes from before the block (the rename table resolves it),
	// tmplNone that the operand slot is unused.
	prodA, prodB int32

	// cons[consLo:consHi] lists the node's in-block consumers in ascending
	// index order, one entry per operand it feeds (a node reading the
	// producer through both operands appears twice, matching the two
	// pending counts it holds).
	consLo, consHi int32

	meta uint8
}

// Operand producer sentinels.
const (
	tmplNone  int32 = -1
	tmplCross int32 = -2
)

// Node metadata bits.
const (
	metaMem    uint8 = 1 << 0 // occupies a memory issue slot
	metaStore  uint8 = 1 << 1
	metaHasDst uint8 = 1 << 2
)

func decMeta(op ir.Op) uint8 {
	var m uint8
	if op.IsMem() {
		m |= metaMem
	}
	if op.IsStore() {
		m |= metaStore
	}
	if op.HasDst() {
		m |= metaHasDst
	}
	return m
}

// of returns the issue template for a block, building it on first use.
func (d *decTable) of(p *ir.Program, id ir.BlockID) *blockTmpl {
	if int(id) >= len(d.blocks) {
		nb := make([]*blockTmpl, len(p.Blocks))
		copy(nb, d.blocks)
		d.blocks = nb
	}
	if t := d.blocks[id]; t != nil {
		return t
	}
	t := buildTmpl(p.Block(id))
	d.blocks[id] = t
	return t
}

// buildTmpl derives a block's template: producers by a forward scan over
// the block's register writes, then consumer lists laid out by counting
// and filled in ascending consumer order.
func buildTmpl(b *ir.Block) *blockTmpl {
	n := len(b.Body) + 1
	t := &blockTmpl{nodes: make([]tmplNode, n)}
	var last [ir.NumRegs]int32
	for r := range last {
		last[r] = tmplCross
	}
	producer := func(r ir.Reg) int32 {
		if r == ir.NoReg {
			return tmplNone
		}
		return last[r]
	}
	for i := range t.nodes {
		nd := &b.Term
		if i < len(b.Body) {
			nd = &b.Body[i]
		}
		tn := &t.nodes[i]
		tn.n = nd
		tn.meta = decMeta(nd.Op)
		tn.prodA = producer(nd.A)
		tn.prodB = producer(nd.B)
		if nd.Op.HasDst() {
			last[nd.Dst] = int32(i)
		}
	}
	var total int32
	for i := range t.nodes {
		for _, p := range [2]int32{t.nodes[i].prodA, t.nodes[i].prodB} {
			if p >= 0 {
				t.nodes[p].consHi++
				total++
			}
		}
	}
	var off int32
	for i := range t.nodes {
		cnt := t.nodes[i].consHi
		t.nodes[i].consLo, t.nodes[i].consHi = off, off
		off += cnt
	}
	t.cons = make([]int32, total)
	for i := range t.nodes {
		for _, p := range [2]int32{t.nodes[i].prodA, t.nodes[i].prodB} {
			if p >= 0 {
				t.cons[t.nodes[p].consHi] = int32(i)
				t.nodes[p].consHi++
			}
		}
	}
	return t
}
