package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fgpsim/internal/branch"
	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/faultinject"
	"fgpsim/internal/ir"
	"fgpsim/internal/mem"
	"fgpsim/internal/stats"
)

// sampleSnapshot exercises every encoder branch: both optional tables
// present, a non-empty return stack, and a populated block-size histogram.
func sampleSnapshot() *Snapshot {
	st := &core.EngineState{
		Cycle:             123456,
		Mem:               []byte{1, 2, 3, 4, 5, 6, 7, 8},
		InPos:             [2]int64{3, 0},
		Out:               []byte("hello"),
		RetStack:          []ir.BlockID{2, 7, 11},
		NextBlock:         42,
		Cursor:            99,
		MemEpoch:          41,
		LastLoadRetry:     17,
		BlockedLoadGhosts: 2,
		Stats:             stats.New(),
		Cache: &mem.CacheState{
			Sets: 2, Tags: []uint32{10, 20, 30, 40}, LRU: []byte{0, 1},
			Hits: 100, Misses: 7,
		},
		Pred: &branch.State{
			Kind: branch.StateTwoBit,
			Tags: []int32{-1, 5, -1, 9}, Ctr: []byte{0, 3, 1, 2},
			Hits: 55, Seen: []ir.BlockID{5, 9}, Lookups: 60,
		},
	}
	for i := range st.Regs {
		st.Regs[i] = int32(i * 3)
	}
	for i := range st.RegReady {
		st.RegReady[i] = int64(i * 7)
	}
	st.Stats.Cycles = 123456
	st.Stats.RetiredNodes = 4000
	st.Stats.BlockSizes[3] = 10
	st.Stats.BlockSizes[17] = 2
	st.Stats.Work = 4100

	return &Snapshot{
		Fingerprint: 0xdeadbeefcafef00d,
		Engine:      st,
		Injector:    &faultinject.State{RNG: 987654321, Tried: 12, Events: 4},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", s, got)
	}
	// Determinism: encoding the decoded value reproduces the bytes.
	if !bytes.Equal(data, Encode(got)) {
		t.Fatal("re-encoding the decoded snapshot produced different bytes")
	}
}

func TestDecodeNoInjectorFrame(t *testing.T) {
	s := sampleSnapshot()
	s.Injector = nil
	s.Engine.Cache = nil
	s.Engine.Pred = nil
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("roundtrip mismatch without optional parts")
	}
}

// TestDecodeRejectsBitFlips flips each byte of a valid encoding and
// requires Decode to fail: every region is covered by magic, length, or
// CRC checks, so no single corruption can decode silently.
func TestDecodeRejectsBitFlips(t *testing.T) {
	data := Encode(sampleSnapshot())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d: corrupted snapshot decoded without error", i)
		}
	}
}

// TestDecodeRejectsTruncation cuts the encoding at every length and
// requires a typed failure (a torn write never decodes).
func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(sampleSnapshot())
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: error %v is not a CorruptError", n, err)
		}
	}
}

func TestWriteFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.snap")

	s1 := sampleSnapshot()
	s1.Engine.Cycle = 100
	if err := WriteFile(chaos.OS{}, path, s1); err != nil {
		t.Fatal(err)
	}
	s2 := sampleSnapshot()
	s2.Engine.Cycle = 200
	if err := WriteFile(chaos.OS{}, path, s2); err != nil {
		t.Fatal(err)
	}

	got, err := ReadLatest(chaos.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Cycle != 200 {
		t.Fatalf("ReadLatest cycle = %d, want newest (200)", got.Engine.Cycle)
	}

	// Tear the newest file: the ladder must fall back to the rotated one.
	if err := os.WriteFile(path, []byte("FGPSNAP\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadLatest(chaos.OS{}, path)
	if err != nil {
		t.Fatalf("fallback read: %v", err)
	}
	if got.Engine.Cycle != 100 {
		t.Fatalf("fallback cycle = %d, want previous (100)", got.Engine.Cycle)
	}

	Remove(chaos.OS{}, path)
	if _, err := ReadLatest(chaos.OS{}, path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after Remove, err = %v, want ErrNotExist", err)
	}
}

func TestReadLatestMissing(t *testing.T) {
	if _, err := ReadLatest(chaos.OS{}, filepath.Join(t.TempDir(), "nope.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleSnapshot()))
	plain := sampleSnapshot()
	plain.Injector = nil
	plain.Engine.Cache = nil
	plain.Engine.Pred = nil
	f.Add(Encode(plain))
	f.Add([]byte("FGPSNAP\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Decode error %v is not a CorruptError", err)
			}
			return
		}
		// Anything that decodes must re-encode canonically and roundtrip.
		re := Encode(s)
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("re-encoded snapshot decoded differently")
		}
	})
}
