package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host pace: the benchmark's correction for a shared host's speed.
//
// On a shared host the same code runs up to two or three times slower
// at some times than at others (another tenant on the SMT sibling, a
// busy last-level cache, lower clocks), in spells of a fraction of a
// second to many minutes. That drift is far wider than any bound a
// change to the simulator could be held to. So an untraced run also
// times two fixed reference kernels, the benchmark's own code, which no
// change to the repository can speed up or slow down:
//
//   - around every set-up, a solve kernel on one goroutine: tridiagonal
//     sweeps over float vectors, like the circuit solver that set-up
//     runs;
//   - after every grid of a chunk, a short burst of a store kernel on
//     workers goroutines: random updates of a large table and a map,
//     like the simulator's store and controller.
//
// A set-up's slowdown is the mean solve pass time in the readings just
// before and after it over the nominal pass time; a chunk's is the mean
// store pass time in its bursts. Means, like the workload's own total
// time, so a slow spell weighs in both by its length. Each set-up time
// is divided by its slowdown, and each chunk's host times by the
// chunk's (its rates multiplied): each metric reads as it would on a
// host where the kernels take exactly their nominal times. Slowdowns
// are taken per set-up and per chunk, so a slow spell that hits one of
// them is corrected there and nowhere else. The raw values and
// the slowdowns are printed on the run's '#' lines.

// Nominal pass times, roughly what an unloaded two-vCPU Xeon host takes.
const (
	solveNominal = 9 * time.Millisecond
	storeNominal = 10 * time.Millisecond
)

// Passes per solve reading (about a third of a second) and per store
// burst (about a sixth of a grid).
const (
	solvePasses = 32
	storePasses = 6
)

// Kernel sizes. The solve kernel works in vectors of a 512-line
// crossbar. The store kernel's 8 MB table and 2 MB hash table live in
// the shared last-level cache and memory, where a busy neighbour slows
// the simulator most; of the kernels tried (1 MB and 8 MB tables, and
// an allocating one), this size tracked the degraded grid's time best.
// The two kernels add about 20 MB to peak_rss_mb on every run alike.
const (
	solveN         = 512
	solveSweeps    = 720
	storeLen       = 1 << 20
	storeKeys      = 1 << 16
	storeSlotBits  = 17 // twice storeKeys: the hash table is at most half full
	storeSlots     = 1 << storeSlotBits
	storeUnits     = 80
	storeUnitSteps = 10_000
)

// solveKernel is the set-up reference: Thomas-algorithm solves of a
// diagonally dominant tridiagonal system, the shape of the circuit
// model's wordline and bitline ladders.
type solveKernel struct {
	sub, diag, sup, rhs, c, x []float64
	sink                      float64
}

func newSolveKernel() *solveKernel {
	k := &solveKernel{}
	for _, v := range []*[]float64{&k.sub, &k.diag, &k.sup, &k.rhs, &k.c, &k.x} {
		*v = make([]float64, solveN)
	}
	return k
}

func (k *solveKernel) pass() {
	g := 1.0
	for s := 0; s < solveSweeps; s++ {
		for j := 0; j < solveN; j++ {
			k.sub[j], k.sup[j] = -g, -g
			k.diag[j] = 2*g + 1e-3*float64(j%7+1)
			k.rhs[j] = k.x[j]*1e-3 + 1
		}
		// Forward elimination and back substitution.
		k.c[0] = k.sup[0] / k.diag[0]
		k.x[0] = k.rhs[0] / k.diag[0]
		for j := 1; j < solveN; j++ {
			m := k.diag[j] - k.sub[j]*k.c[j-1]
			k.c[j] = k.sup[j] / m
			k.x[j] = (k.rhs[j] - k.sub[j]*k.x[j-1]) / m
		}
		for j := solveN - 2; j >= 0; j-- {
			k.x[j] -= k.c[j] * k.x[j+1]
		}
		g *= 1.001
	}
	k.sink += k.x[solveN/2]
}

// storeKernel is the chunk reference: random updates of a table plus
// lookups and inserts in an open-addressing hash table, the work of the
// simulator's store and its maps. Both are mapped outside the Go heap,
// so they neither raise the collector's heap target (the workload would
// collect less often) nor get scanned, and a pass allocates nothing.
type storeKernel struct {
	table []uint64
	slots []uint64 // key+1, value pairs; key+1 == 0 is an empty slot
	x     uint64   // generator state
	sink  uint64
}

func newStoreKernel() (*storeKernel, error) {
	n := storeLen + 2*storeSlots
	mem, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the pace kernel's tables: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
	return &storeKernel{table: words[:storeLen], slots: words[storeLen:], x: 0x9E3779B97F4A7C15}, nil
}

// steps runs n steps of the store work, continuing from where the last
// call left off.
func (k *storeKernel) steps(n int) {
	x, acc := k.x, k.sink
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (storeLen - 1)
		k.table[j] += x >> 32
		acc += k.table[(j*31+7)&(storeLen-1)]
		key := (x >> 40) & (storeKeys - 1)
		for h := (key * 0x9E3779B97F4A7C15) >> (64 - storeSlotBits); ; h = (h + 1) & (storeSlots - 1) {
			if k.slots[2*h] == key+1 {
				acc += k.slots[2*h+1]
				break
			}
			if k.slots[2*h] == 0 {
				k.slots[2*h], k.slots[2*h+1] = key+1, x
				break
			}
		}
		if acc&3 == 0 {
			acc = acc*3 + 1
		}
	}
	k.x, k.sink = x, acc
}

// pacer runs the kernels and keeps every pass time of the run. A nil
// pacer (the traced run) does nothing.
type pacer struct {
	solve      *solveKernel
	stores     []*storeKernel
	solveTimes []float64 // ns per pass
	storeTimes []float64 // ns per pass
}

func newPacer() (*pacer, error) {
	p := &pacer{solve: newSolveKernel()}
	for i := 0; i < workers; i++ {
		k, err := newStoreKernel()
		if err != nil {
			return nil, err
		}
		p.stores = append(p.stores, k)
	}
	// Fault in the tables and grow the maps before any pass is timed.
	p.solve.pass()
	p.burst()
	p.storeTimes = nil
	return p, nil
}

// reading times solvePasses passes of the solve kernel, next to a
// set-up.
func (p *pacer) reading() {
	if p == nil {
		return
	}
	runtime.GC() // finish the collection the set-up or chunk left running
	for r := 0; r < solvePasses; r++ {
		start := time.Now()
		p.solve.pass()
		p.solveTimes = append(p.solveTimes, float64(time.Since(start)))
	}
}

// burst times storePasses passes of the store kernel on workers
// goroutines, between two pieces of a chunk's timed work. A pass is
// storeUnits units of work that the goroutines take from a shared count
// as they finish, the way the workload's workers take cells, so a
// pass slows with the host's total speed, not with its slowest CPU.
func (p *pacer) burst() {
	if p == nil {
		return
	}
	runtime.GC() // finish the collection the last grid left running
	for r := 0; r < storePasses; r++ {
		var wg sync.WaitGroup
		var next atomic.Int64
		start := time.Now()
		for _, k := range p.stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clear(k.slots)
				for next.Add(1) <= storeUnits {
					k.steps(storeUnitSteps)
				}
			}()
		}
		wg.Wait()
		p.storeTimes = append(p.storeTimes, float64(time.Since(start)))
	}
}

// setupSlowdown and chunkSlowdown return the slowdown over the solve
// or store passes since the last call: mean pass time over nominal.
func (p *pacer) setupSlowdown() float64 {
	s := mean(p.solveTimes) / float64(solveNominal)
	p.solveTimes = p.solveTimes[:0]
	return s
}

func (p *pacer) chunkSlowdown() float64 {
	s := mean(p.storeTimes) / float64(storeNominal)
	p.storeTimes = p.storeTimes[:0]
	return s
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
