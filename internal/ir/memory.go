package ir

import "encoding/binary"

// Memory page geometry. A page is the unit Memory allocates on first write.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a program's flat simulated memory: MemSize bytes, addressed
// from 0, little-endian. It is stored as fixed 4 KB pages created on first
// write, so a page that is never written reads as zeros and costs nothing.
// A run touches a few data and stack pages of the 8 MB MiniC address
// space, so building a Memory is cheap. The functional interpreter and
// both timed engines share this one implementation, including its address
// clamp, which is what keeps their runs bit-for-bit comparable.
type Memory struct {
	size  int64
	pages []*[pageSize]byte // nil until the page is first written
}

// NewMemory returns p's memory at program entry: MemSize bytes, zero
// except for the data segment at DataBase (truncated at MemSize).
func NewMemory(p *Program) *Memory {
	m := &Memory{
		size:  p.MemSize,
		pages: make([]*[pageSize]byte, (p.MemSize+pageMask)>>pageShift),
	}
	if p.DataBase < m.size {
		m.Write(p.DataBase, p.Data[:min(int64(len(p.Data)), m.size-p.DataBase)])
	}
	return m
}

// Size returns the memory size in bytes (Program.MemSize).
func (m *Memory) Size() int64 { return m.size }

// Clamp keeps every access inside the memory: an access of size bytes at
// a (read as unsigned) that would run past MemSize goes to address 0
// instead. Wild addresses, possible on wrong paths and in buggy benchmark
// code, thus land in a reserved low page rather than crashing the host.
func (m *Memory) Clamp(a int32, size int64) int64 {
	addr := int64(uint32(a))
	if addr+size > m.size {
		return 0
	}
	return addr
}

// Load reads a size-byte (1 or 4) little-endian value at the clamped
// address; a byte is zero-extended.
func (m *Memory) Load(a int32, size int64) int32 {
	addr := m.Clamp(a, size)
	pg := m.pages[addr>>pageShift]
	off := addr & pageMask
	if size == 1 {
		if pg == nil {
			return 0
		}
		return int32(pg[off])
	}
	if off > pageSize-4 { // the word straddles two pages
		var b [4]byte
		m.Read(addr, b[:])
		return int32(binary.LittleEndian.Uint32(b[:]))
	}
	if pg == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(pg[off:]))
}

// Store writes the low size bytes (1 or 4) of v little-endian at the
// clamped address.
func (m *Memory) Store(a int32, size int64, v int32) {
	addr := m.Clamp(a, size)
	off := addr & pageMask
	if size == 1 {
		m.page(addr)[off] = byte(v)
		return
	}
	if off > pageSize-4 { // the word straddles two pages
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		m.Write(addr, b[:])
		return
	}
	binary.LittleEndian.PutUint32(m.page(addr)[off:], uint32(v))
}

// Read copies the bytes at [addr, addr+len(dst)) into dst. The range must
// lie inside the memory (a clamped address with its access size does).
func (m *Memory) Read(addr int64, dst []byte) {
	for len(dst) > 0 {
		pg := m.pages[addr>>pageShift]
		off := addr & pageMask
		n := min(int64(len(dst)), pageSize-off)
		if pg == nil {
			clear(dst[:n])
		} else {
			copy(dst[:n], pg[off:])
		}
		dst = dst[n:]
		addr += n
	}
}

// Write copies src to [addr, addr+len(src)), which must lie inside the
// memory.
func (m *Memory) Write(addr int64, src []byte) {
	for len(src) > 0 {
		n := int64(copy(m.page(addr)[addr&pageMask:], src))
		src = src[n:]
		addr += n
	}
}

// FlipBit inverts bit (0–7) of the byte at off, which must lie inside the
// memory.
func (m *Memory) FlipBit(off int64, bit uint) {
	m.page(off)[off&pageMask] ^= 1 << bit
}

// Bytes returns a flat copy of the whole memory, MemSize bytes.
func (m *Memory) Bytes() []byte {
	b := make([]byte, m.size)
	for i, pg := range m.pages {
		if pg != nil {
			copy(b[int64(i)<<pageShift:], pg[:])
		}
	}
	return b
}

// SetBytes replaces the whole memory with the flat image b, which must be
// exactly MemSize bytes. All-zero pages of b that were never written stay
// unallocated.
func (m *Memory) SetBytes(b []byte) {
	if int64(len(b)) != m.size {
		panic("ir: Memory.SetBytes image size differs from MemSize")
	}
	for i := range m.pages {
		base := int64(i) << pageShift
		src := b[base:min(base+pageSize, m.size)]
		if m.pages[i] == nil && allZero(src) {
			continue
		}
		copy(m.page(base)[:], src)
	}
}

// page returns the page holding addr, creating it on first use.
func (m *Memory) page(addr int64) *[pageSize]byte {
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		pg = new([pageSize]byte)
		m.pages[addr>>pageShift] = pg
	}
	return pg
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
