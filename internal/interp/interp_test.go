package interp

import (
	"bytes"
	"testing"

	"fgpsim/internal/ir"
)

// makeProgram assembles a small program by hand: read bytes, sum them,
// write the low byte of the sum, repeat until EOF.
func makeProgram() *ir.Program {
	p := &ir.Program{MemSize: 1 << 16}
	f := &ir.Func{Name: "main"}
	p.Funcs = append(p.Funcs, f)
	// b0: r5 = 0 (sum); jmp b1
	b0 := &ir.Block{
		Body: []ir.Node{{Op: ir.Const, Dst: 5, Imm: 0}},
		Term: ir.Node{Op: ir.Jmp, Target: 1},
		Fall: ir.NoBlock,
	}
	p.AddBlock(0, b0)
	// b1: r6 = getc(0); r7 = r6 >= 0; br r7 -> b2 else b3
	b1 := &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 8, Imm: 0},
			{Op: ir.Sys, Dst: 6, A: 8, B: ir.NoReg, Imm: ir.SysGetc},
			{Op: ir.Ge, Dst: 7, A: 6, B: 8},
		},
		Term: ir.Node{Op: ir.Br, A: 7, Target: 2},
		Fall: 3,
	}
	p.AddBlock(0, b1)
	// b2: r5 += r6; putc(r5); jmp b1
	b2 := &ir.Block{
		Body: []ir.Node{
			{Op: ir.Add, Dst: 5, A: 5, B: 6},
			{Op: ir.Sys, Dst: 9, A: 5, B: ir.NoReg, Imm: ir.SysPutc},
		},
		Term: ir.Node{Op: ir.Jmp, Target: 1},
		Fall: ir.NoBlock,
	}
	p.AddBlock(0, b2)
	// b3: halt
	b3 := &ir.Block{Term: ir.Node{Op: ir.Halt}, Fall: ir.NoBlock}
	p.AddBlock(0, b3)
	f.Entry = 0
	return p
}

func TestRunningSum(t *testing.T) {
	p := makeProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, []byte{1, 2, 3}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, []byte{1, 3, 6}) {
		t.Fatalf("output = %v, want [1 3 6]", res.Output)
	}
	if res.RetiredBlocks != 1+3*2+1+1 {
		t.Errorf("retired blocks = %d", res.RetiredBlocks)
	}
}

func TestNodeLimit(t *testing.T) {
	p := makeProgram()
	// Force an infinite loop by making b2 jump to itself... instead use a
	// tiny limit on the normal program.
	_, err := Run(p, []byte{1, 2, 3}, nil, Options{MaxNodes: 5})
	if err != ErrNodeLimit {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
}

func TestProfileCollection(t *testing.T) {
	p := makeProgram()
	prof := NewProfile()
	if _, err := Run(p, []byte{1, 2, 3}, nil, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	// b1's branch: taken 3 times (bytes), not taken once (EOF).
	if prof.Taken[1] != 3 || prof.NotTaken[1] != 1 {
		t.Errorf("branch profile taken=%d notTaken=%d, want 3/1", prof.Taken[1], prof.NotTaken[1])
	}
	if prof.Arcs[Arc{1, 2}] != 3 || prof.Arcs[Arc{1, 3}] != 1 {
		t.Errorf("arcs = %v", prof.Arcs)
	}
	if prof.Blocks[2] != 3 {
		t.Errorf("block 2 executed %d times, want 3", prof.Blocks[2])
	}
}

func TestTraceRecording(t *testing.T) {
	p := makeProgram()
	res, err := Run(p, []byte{9}, nil, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []ir.BlockID{0, 1, 2, 1, 3}
	if len(res.Trace) != len(want) {
		t.Fatalf("trace = %v, want %v", res.Trace, want)
	}
	for i := range want {
		if res.Trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", res.Trace, want)
		}
	}
}

func TestAssertFaultRollsBack(t *testing.T) {
	p := &ir.Program{MemSize: 1 << 16}
	f := &ir.Func{Name: "main"}
	p.Funcs = append(p.Funcs, f)
	// b0: r5 = 1; st [r6+256] = r5; assert r7 != 0 (faults: r7 is 0) -> b1
	//     r5 = 2 (never reached); halt
	b0 := &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 5, Imm: 1},
			{Op: ir.St, A: 6, B: 5, Imm: 256},
			{Op: ir.Assert, A: 7, Expect: true, Target: 1},
			{Op: ir.Const, Dst: 5, Imm: 2},
		},
		Term: ir.Node{Op: ir.Halt},
		Fall: ir.NoBlock,
	}
	p.AddBlock(0, b0)
	// b1: r9 = ld [r6+256]; putc(r9); putc(r5); halt
	b1 := &ir.Block{
		Body: []ir.Node{
			{Op: ir.Ld, Dst: 9, A: 6, Imm: 256},
			{Op: ir.Sys, Dst: 10, A: 9, B: ir.NoReg, Imm: ir.SysPutc},
			{Op: ir.Sys, Dst: 10, A: 5, B: ir.NoReg, Imm: ir.SysPutc},
		},
		Term: ir.Node{Op: ir.Halt},
		Fall: ir.NoBlock,
	}
	p.AddBlock(0, b1)
	f.Entry = 0
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err := Run(p, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The store and the register write before the fault must be undone:
	// the load sees 0 and r5 is 0 again.
	if !bytes.Equal(res.Output, []byte{0, 0}) {
		t.Fatalf("output = %v, want [0 0] (rollback failed)", res.Output)
	}
	if res.Faults != 1 {
		t.Errorf("faults = %d, want 1", res.Faults)
	}
}

func TestAssertPassExecutesRest(t *testing.T) {
	p := &ir.Program{MemSize: 1 << 16}
	f := &ir.Func{Name: "main"}
	p.Funcs = append(p.Funcs, f)
	b1 := &ir.Block{ // fault target (unused)
		Term: ir.Node{Op: ir.Halt},
		Fall: ir.NoBlock,
	}
	b0 := &ir.Block{
		Body: []ir.Node{
			{Op: ir.Const, Dst: 5, Imm: 1},
			{Op: ir.Assert, A: 5, Expect: true, Target: 1},
			{Op: ir.Const, Dst: 6, Imm: 65},
			{Op: ir.Sys, Dst: 7, A: 6, B: ir.NoReg, Imm: ir.SysPutc},
		},
		Term: ir.Node{Op: ir.Halt},
		Fall: ir.NoBlock,
	}
	p.AddBlock(0, b0)
	p.AddBlock(0, b1)
	f.Entry = 0
	res, err := Run(p, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "A" {
		t.Fatalf("output = %q, want A", res.Output)
	}
	if res.Faults != 0 {
		t.Errorf("faults = %d, want 0", res.Faults)
	}
}

func TestGetcEOFAndStreams(t *testing.T) {
	m := newMachine(makeProgram(), []byte{7}, []byte{42}, Options{})
	if v := m.syscall(ir.SysGetc, 0, 0); v != 7 {
		t.Errorf("getc(0) = %d, want 7", v)
	}
	if v := m.syscall(ir.SysGetc, 0, 0); v != -1 {
		t.Errorf("getc(0) at EOF = %d, want -1", v)
	}
	if v := m.syscall(ir.SysGetc, 1, 0); v != 42 {
		t.Errorf("getc(1) = %d, want 42", v)
	}
	if v := m.syscall(99, 0, 0); v != -1 {
		t.Errorf("unknown syscall = %d, want -1", v)
	}
}

func TestMemoryClamping(t *testing.T) {
	p := makeProgram()
	m := newMachine(p, nil, nil, Options{})
	// Wild addresses clamp into the guard page instead of crashing.
	m.mem.Store(int32(-4), 4, 123)
	if v := m.mem.Load(int32(-4), 4); v != 123 {
		t.Errorf("clamped load = %d, want 123", v)
	}
	m.mem.Store(int32(p.MemSize), 1, 7)
	if v := m.mem.Load(int32(p.MemSize), 1); v != 7 {
		t.Errorf("clamped byte load = %d", v)
	}
}

func TestByteAndWordAccess(t *testing.T) {
	p := makeProgram()
	m := newMachine(p, nil, nil, Options{})
	m.mem.Store(5000, 4, -2)
	if v := m.mem.Load(5000, 4); v != -2 {
		t.Errorf("word round trip = %d, want -2", v)
	}
	if v := m.mem.Load(5000, 1); v != 0xFE {
		t.Errorf("byte view = %d, want 254 (loads zero-extend)", v)
	}
	m.mem.Store(5001, 1, 0x7F)
	// -2 = FE FF FF FF; overwrite byte 1 with 7F: FE 7F FF FF = -32770.
	if v := m.mem.Load(5000, 4); v != -32770 {
		t.Errorf("mixed access = %d, want -32770", v)
	}
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	p := makeProgram()
	prof := NewProfile()
	if _, err := Run(p, []byte{1, 2}, nil, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	data, err := prof.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Arcs) != len(prof.Arcs) {
		t.Errorf("arcs lost: %d -> %d", len(prof.Arcs), len(back.Arcs))
	}
	for a, n := range prof.Arcs {
		if back.Arcs[a] != n {
			t.Errorf("arc %v = %d, want %d", a, back.Arcs[a], n)
		}
	}
	if back.Taken[1] != prof.Taken[1] {
		t.Error("taken counts lost")
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	trace := []ir.BlockID{0, 5, 2, 7, 100000}
	back, err := UnmarshalTrace(MarshalTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("length %d, want %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Errorf("trace[%d] = %d, want %d", i, back[i], trace[i])
		}
	}
	if _, err := UnmarshalTrace([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length trace should fail")
	}
}
