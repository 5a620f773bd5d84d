package core

import "fgpsim/internal/ir"

// decTable is the dynamic engine's decoded-metadata table: one byte of
// issue-relevant classification per node of each basic block, computed the
// first time a block is fetched and memoized for the rest of the run. The
// issue stage reads these bytes instead of re-deriving opcode classes on
// every fetch of a hot block. Each engine owns its table. Fill-unit images
// materialize new blocks at run time, so of() grows the table lazily.
type decTable struct {
	blocks [][]uint8 // indexed by BlockID; len(Body)+1 entries, terminator last
}

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

// of returns the metadata bytes for a block, decoding it on first use.
func (d *decTable) of(p *ir.Program, id ir.BlockID) []uint8 {
	if int(id) >= len(d.blocks) {
		nb := make([][]uint8, len(p.Blocks))
		copy(nb, d.blocks)
		d.blocks = nb
	}
	if m := d.blocks[id]; m != nil {
		return m
	}
	b := p.Block(id)
	m := make([]uint8, len(b.Body)+1)
	for i := range b.Body {
		m[i] = decMeta(b.Body[i].Op)
	}
	m[len(b.Body)] = decMeta(b.Term.Op)
	d.blocks[id] = m
	return m
}
