package main

import (
	"sort"
	"sync"
	"time"
)

// The timed work of every workload is CPU-bound, and a shared host's speed
// drifts: on a two-vCPU Xeon VM (2.0 GHz, shared host) the same pass of a
// sweep ran at anywhere between 1x and 2x the speed of its slowest within
// half an hour, in stretches of seconds to minutes. The process's CPU time
// tracks its wall clock, so the time is not stolen: the core runs slower,
// and the simulator, branchy code with a large footprint, slows more than
// tight loops do (a pointer chase through 1 MB or a hash-map walk slowed
// 1.2-1.3x over a stretch in which the simulator slowed 1.5x).
//
// So after every cell, outside the timed intervals, a fixed calibration
// kernel of the simulator's kind is timed: a small interpreter runs a fixed
// pseudo-random bytecode program (a dispatch switch, data-dependent
// branches, loads and stores), then a sort of pseudo-random integers (a
// mispredicting compare loop), in about equal shares. Each pass's time is
// scaled by kernelRef over the median kernel time of that pass. The kernel
// must not depend on the program it calibrates. Before each run of it, an
// untimed walk through a buffer twice the size of a core's private caches
// leaves those caches in the same state whatever the cell touched, and the
// median ignores the kernels that overlapped a garbage collection the cell
// left running on the other thread.

// kernelRef is about the kernel's time on that host in a quiet stretch, so
// scaled times read as host seconds at about that speed; only the kernel's
// drift matters.
const kernelRef = 2700 * time.Microsecond

const (
	vmProgLen  = 1 << 12 // bytecode instructions
	vmMemWords = 1 << 14 // the interpreter's memory: 64 KB
	vmSteps    = 500_000
	sortLen    = 1 << 14
	evictBytes = 4 << 20 // twice the 2 MB private L2 of that host's cores
)

// hostSpeed is the calibration kernel and the times it took in one run.
// Only timed runs build one; its 4.3 MB count in their peak RSS.
type hostSpeed struct {
	prog    []uint32
	mem     []uint32
	sortIn  []int
	sortBuf []int
	evict   []uint64
	sink    uint64

	mu    sync.Mutex
	times []time.Duration
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{
		prog:    make([]uint32, vmProgLen),
		mem:     make([]uint32, vmMemWords),
		sortIn:  make([]int, sortLen),
		sortBuf: make([]int, sortLen),
		evict:   make([]uint64, evictBytes/8),
	}
	x := uint32(7)
	for i := range h.prog {
		x = x*1664525 + 1013904223
		h.prog[i] = x
	}
	for i := range h.sortIn {
		x = x*1664525 + 1013904223
		h.sortIn[i] = int(x)
	}
	return h
}

// sample evicts the core's private caches, then times one run of the
// kernel and returns its time.
func (h *hostSpeed) sample() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s uint64
	for i := 0; i < len(h.evict); i += 8 { // one read per 64-byte line
		s += h.evict[i]
	}
	start := time.Now()
	clear(h.mem)
	s += h.interpret(vmSteps)
	copy(h.sortBuf, h.sortIn)
	sort.Ints(h.sortBuf)
	d := time.Since(start)
	h.times = append(h.times, d)
	h.sink += s + uint64(h.sortBuf[sortLen/2])
	return d
}

// interpret runs steps instructions of the bytecode program from its start.
// An instruction's low four bits pick the operation, the next nine bits
// three of eight registers, and its high bits an immediate.
func (h *hostSpeed) interpret(steps int) uint64 {
	var r [8]uint32
	prog, mem := h.prog, h.mem
	const pcMask, memMask = vmProgLen - 1, vmMemWords - 1
	pc := 0
	for i := 0; i < steps; i++ {
		ins := prog[pc]
		a, b, c := ins>>4&7, ins>>7&7, ins>>10&7
		pc = (pc + 1) & pcMask
		switch ins & 15 {
		case 0:
			r[a] = r[b] + r[c]
		case 1:
			r[a] = r[b] - r[c] + ins>>20
		case 2:
			r[a] = r[b] ^ r[c]<<3
		case 3:
			r[a] = mem[(r[b]+ins>>17)&memMask]
		case 4:
			mem[(r[b]+ins>>17)&memMask] = r[c]
		case 5:
			if r[b]&1 == 0 {
				pc = int(ins>>18) & pcMask
			}
		case 6:
			r[a] = r[b] * (r[c] | 1)
		case 7:
			if r[b] < r[c] {
				pc = int(r[a]) & pcMask
			}
		case 8:
			r[a] = r[b] >> (r[c] & 7)
		case 9:
			r[a] = mem[r[b]&memMask] + mem[r[c]&memMask]
		case 10:
			r[a] = r[b] | ins
		case 11:
			r[a]++
		case 12:
			r[a] = r[a]*1664525 + 1013904223
		case 13:
			if r[a] > r[b] {
				r[c] = r[a]
			}
		case 14:
			r[a] = r[b] &^ r[c]
		default:
			r[a] = ins
		}
	}
	return uint64(r[0]) + uint64(r[1]) + uint64(r[2])
}

// mark is the number of kernel times taken so far, for scaleSince.
func (h *hostSpeed) mark() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.times)
}

// scale is the factor that turns times measured over the run into times at
// the reference host speed: kernelRef over the median kernel time.
func (h *hostSpeed) scale() float64 { return h.scaleSince(0) }

// scaleSince is scale over the kernel times taken since mark returned k, so
// a pass is scaled by the host speed during that pass.
func (h *hostSpeed) scaleSince(k int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.times) <= k {
		return 1
	}
	ts := append([]time.Duration(nil), h.times[k:]...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return float64(kernelRef) / float64(ts[len(ts)/2])
}
