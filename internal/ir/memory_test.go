package ir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// flatMem is the reference model for Memory: the plain []byte the
// interpreter and engines used before memory was paged, with the same
// clamp rule.
type flatMem []byte

func (f flatMem) clamp(a int32, size int64) int64 {
	addr := int64(uint32(a))
	if addr+size > int64(len(f)) {
		return 0
	}
	return addr
}

func (f flatMem) load(a int32, size int64) int32 {
	addr := f.clamp(a, size)
	if size == 1 {
		return int32(f[addr])
	}
	return int32(uint32(f[addr]) | uint32(f[addr+1])<<8 |
		uint32(f[addr+2])<<16 | uint32(f[addr+3])<<24)
}

func (f flatMem) store(a int32, size int64, v int32) {
	addr := f.clamp(a, size)
	for i := int64(0); i < size; i++ {
		f[addr+i] = byte(v >> (8 * i))
	}
}

// memSizes are the memory sizes the model tests run: the MiniC default, a
// page multiple, sizes whose last page is partial (asm programs set
// memsize= freely), and one smaller than a page.
var memSizes = []int64{8 << 20, 3 * pageSize, 3*pageSize + 1000, 2*pageSize + 4093, 100}

// pickAddr draws an address biased toward the edges: words straddling a
// page, the last bytes below MemSize, accesses the clamp redirects
// (running past MemSize, negative as int32), and the clamp's target.
func pickAddr(rng *rand.Rand, size int64) int32 {
	pages := (size + pageMask) >> pageShift
	switch rng.Intn(7) {
	case 0: // straddling or ending at a page boundary
		return int32(rng.Int63n(pages)<<pageShift + pageSize - 1 - rng.Int63n(4))
	case 1: // the last bytes below MemSize, and just past it
		return int32(size - 8 + rng.Int63n(12))
	case 2: // negative as int32: always clamped
		return -1 - rng.Int31n(1<<20)
	case 3: // far above MemSize
		return int32(size + rng.Int63n(1<<30))
	case 4: // the clamp's target
		return rng.Int31n(8)
	default:
		return int32(rng.Int63n(size))
	}
}

// TestMemoryMatchesFlatModel runs a seeded random mix of 1- and 4-byte
// loads and stores, range reads and writes, and bit flips against a plain
// []byte of the same size, op by op.
func TestMemoryMatchesFlatModel(t *testing.T) {
	for _, size := range memSizes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("size%d/seed%d", size, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1_000_003 + size))
				m := NewMemory(&Program{MemSize: size})
				ref := make(flatMem, size)
				for op := 0; op < 20000; op++ {
					a := pickAddr(rng, size)
					w := int64(1)
					if rng.Intn(2) == 0 {
						w = 4
					}
					switch rng.Intn(8) {
					case 0, 1, 2:
						v := int32(rng.Uint32())
						m.Store(a, w, v)
						ref.store(a, w, v)
					case 3, 4, 5:
						if got, want := m.Load(a, w), ref.load(a, w); got != want {
							t.Fatalf("op %d: Load(%d, %d) = %#x, model %#x", op, a, w, got, want)
						}
						if got, want := m.Clamp(a, w), ref.clamp(a, w); got != want {
							t.Fatalf("op %d: Clamp(%d, %d) = %d, model %d", op, a, w, got, want)
						}
					case 6: // a range write or read of up to three pages
						addr := rng.Int63n(size)
						n := min(rng.Int63n(3*pageSize), size-addr)
						if rng.Intn(2) == 0 {
							src := make([]byte, n)
							rng.Read(src)
							m.Write(addr, src)
							copy(ref[addr:], src)
						} else {
							dst := make([]byte, n)
							m.Read(addr, dst)
							if !bytes.Equal(dst, ref[addr:addr+n]) {
								t.Fatalf("op %d: Read(%d, %d bytes) differs from the model", op, addr, n)
							}
						}
					case 7:
						off, bit := rng.Int63n(size), uint(rng.Intn(8))
						m.FlipBit(off, bit)
						ref[off] ^= 1 << bit
					}
				}
				if !bytes.Equal(m.Bytes(), ref) {
					t.Fatal("Bytes differs from the model")
				}
			})
		}
	}
}

// TestMemoryBytesRoundTrip checks that SetBytes restores a flat image
// exactly, over memory that already holds other data, and that Bytes
// returns it.
func TestMemoryBytesRoundTrip(t *testing.T) {
	for _, size := range memSizes {
		rng := rand.New(rand.NewSource(size))
		img := make([]byte, size)
		for i := 0; i < 50; i++ { // sparse: most pages stay zero
			img[rng.Int63n(size)] = byte(1 + rng.Intn(255))
		}
		m := NewMemory(&Program{MemSize: size})
		for i := 0; i < 200; i++ { // dirty pages the image has zero
			m.Store(int32(rng.Int63n(size)), 1, int32(1+rng.Intn(255)))
		}
		m.SetBytes(img)
		if !bytes.Equal(m.Bytes(), img) {
			t.Fatalf("size %d: Bytes after SetBytes differs from the image", size)
		}
		for i := 0; i < 1000; i++ {
			a := pickAddr(rng, size)
			if got, want := m.Load(a, 4), flatMem(img).load(a, 4); got != want {
				t.Fatalf("size %d: Load(%d) after SetBytes = %#x, image %#x", size, a, got, want)
			}
		}
	}
}

// TestMemoryUntouchedCostsNothing checks that reading memory, including
// its flat image and an all-zero restore, creates no page.
func TestMemoryUntouchedCostsNothing(t *testing.T) {
	for _, size := range memSizes {
		rng := rand.New(rand.NewSource(size))
		m := NewMemory(&Program{MemSize: size})
		for i := 0; i < 5000; i++ {
			a := pickAddr(rng, size)
			if v := m.Load(a, 1) | m.Load(a, 4); v != 0 {
				t.Fatalf("size %d: untouched Load(%d) = %#x", size, a, v)
			}
		}
		var buf [3 * pageSize]byte
		addr := rng.Int63n(size)
		m.Read(addr, buf[:min(int64(len(buf)), size-addr)])
		m.Bytes()
		m.SetBytes(make([]byte, size))
		for i, pg := range m.pages {
			if pg != nil {
				t.Fatalf("size %d: page %d created by reads alone", size, i)
			}
		}
	}
}

// TestNewMemoryLoadsData checks the data segment is in place at DataBase
// and truncated at MemSize.
func TestNewMemoryLoadsData(t *testing.T) {
	data := []byte("0123456789")
	for _, tc := range []struct{ size, base int64 }{
		{8 << 20, 4096},
		{3*pageSize + 1000, pageSize - 3}, // straddles a page
		{3*pageSize + 1000, 3*pageSize + 995},
		{100, 200}, // entirely past MemSize
	} {
		m := NewMemory(&Program{MemSize: tc.size, DataBase: tc.base, Data: data})
		want := make([]byte, tc.size)
		if tc.base < tc.size {
			copy(want[tc.base:], data)
		}
		if !bytes.Equal(m.Bytes(), want) {
			t.Errorf("size %d base %d: initial memory differs from the data segment", tc.size, tc.base)
		}
	}
}
