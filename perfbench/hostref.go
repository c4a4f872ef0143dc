package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. On a shared host the speed of a CPU moves with what
// the neighbours run: the same run of the same stack took 1.7 times the CPU
// per simulated Mbit at one hour as at another, and no window inside one
// run averages that out. A fixed kernel that shares no code with the stack
// — a table-driven walk, hashing, map lookups and sorting over a working
// set that stays in a core's caches, as the simulator's hot loop does — is
// timed in quiet slots of each run. Its median thread CPU and wall times
// against refNominalMs are the host factors the host-time metrics are
// scaled by, so that they read as on a host where one pass takes
// refNominalMs. The raw figures are kept in the result file.
const (
	// refTableLen is the walk's table: 64 KiB of uint32.
	refTableLen = 1 << 14
	// refWalkSteps, refMapLen, refSortLen and refSorts size one pass.
	refWalkSteps = 1 << 18
	refMapLen    = 1 << 12
	refSortLen   = 1 << 11
	refSorts     = 8
	// refNominalMs is the pass time the scaled figures are quoted at:
	// about a pass's time on a quiet 2-CPU x86-64 VM.
	refNominalMs = 5.0
	// refSlotPasses is how many passes one quiet slot runs.
	refSlotPasses = 10
)

// hostRef is the kernel's data, built once and never written again except
// for the sort buffer, so a pass allocates nothing.
type hostRef struct {
	table []uint32
	m     map[uint32]uint32
	keys  []uint64
	work  []uint64
}

func newHostRef() *hostRef {
	r := rand.New(rand.NewSource(1))
	h := &hostRef{table: make([]uint32, refTableLen), m: make(map[uint32]uint32, refMapLen),
		keys: make([]uint64, refSortLen), work: make([]uint64, refSortLen)}
	for i := range h.table {
		h.table[i] = r.Uint32()
	}
	for len(h.m) < refMapLen {
		h.m[r.Uint32()%(4*refMapLen)] = r.Uint32()
	}
	for i := range h.keys {
		h.keys[i] = r.Uint64()
	}
	return h
}

// pass runs the kernel once. Every step feeds the next and the sorted keys
// it writes, so no step can be optimized away; the checksum is returned
// for tests.
func (h *hostRef) pass() uint64 {
	var sum uint64
	x := uint32(1)
	for s := 0; s < refWalkSteps; s++ {
		x = h.table[x%refTableLen] ^ (x >> 3) ^ uint32(s)
		if v, ok := h.m[x%(4*refMapLen)]; ok {
			x += v
		}
		sum = sum*0x9E3779B97F4A7C15 + uint64(x)
	}
	for k := 0; k < refSorts; k++ {
		for j, y := range h.keys {
			h.work[j] = y ^ (sum + uint64(k))
		}
		slices.Sort(h.work)
		sum += h.work[int(sum%refSortLen)]
	}
	return sum
}

// threadCPU is the calling thread's CPU time, to the nanosecond
// (getrusage rounds a thread's time to scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostProbe times the kernel in quiet slots: points of a run where the
// benchmark has stopped the stack and collected its garbage, so that the
// reading measures the host and not the code under test. Each pass's
// thread CPU time scales the CPU metrics; its wall time, which a stolen or
// shared CPU also stretches, scales the wall-clock ones.
type hostProbe struct {
	ref  *hostRef
	cpu  []float64
	wall []float64
}

func newHostProbe() *hostProbe { return &hostProbe{ref: newHostRef()} }

// slot collects the garbage and then runs refSlotPasses passes on a thread
// of their own. A nil probe only collects the garbage.
func (p *hostProbe) slot() {
	runtime.GC()
	if p == nil {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < refSlotPasses; i++ {
		c0, w0 := threadCPU(), time.Now()
		p.ref.pass()
		p.cpu = append(p.cpu, float64((threadCPU()-c0).Microseconds())/1e3)
		p.wall = append(p.wall, float64(time.Since(w0).Microseconds())/1e3)
	}
}

// factors are the median pass's CPU and wall time over refNominalMs: above
// 1 on a host slower than the nominal one, 1 with no probe or no pass.
func (p *hostProbe) factors() (cpu, wall float64) {
	if p == nil || len(p.cpu) == 0 {
		return 1, 1
	}
	id := func(x float64) float64 { return x }
	return median(p.cpu, id) / refNominalMs, median(p.wall, id) / refNominalMs
}
