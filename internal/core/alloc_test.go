package core

import (
	"runtime"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// allocStream is streamSum with an outer repeat: long enough that the
// bounded startup transients (miss-episode records until the freelist
// primes, heap/map/queue growth to working-set size, BSHR freelist
// priming) amortize to noise against the steady-state cycles.
const allocStream = `
        .data
arr:    .space 32768          # 4 pages: communicated traffic on 2 nodes
        .text
        li   r6, 12           # outer repeats
outer:  la   r1, arr
        li   r2, 4096         # words
        li   r4, 7
wr:     sd   r4, 0(r1)
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, wr
        la   r1, arr
        li   r2, 4096
rd:     ld   r5, 0(r1)
        add  r3, r3, r5
        addi r1, r1, 8
        addi r2, r2, -1
        bne  r2, zero, rd
        addi r6, r6, -1
        bne  r6, zero, outer
        halt
`

// TestMachineRunSteadyStateAllocs: with no observer attached, the
// machine's inner loop — interconnect ticks, per-node core cycles, the
// next-event scheduler, protocol bookkeeping — must be allocation-free in
// steady state. Startup transients are bounded (see allocStream), so
// amortized allocations per simulated cycle must be ~zero.
func TestMachineRunSteadyStateAllocs(t *testing.T) {
	m := buildMachine(t, allocStream, 2, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := m.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	allocs := after.Mallocs - before.Mallocs
	perCycle := float64(allocs) / float64(r.Cycles)
	t.Logf("%d allocs over %d cycles = %.4f allocs/cycle", allocs, r.Cycles, perCycle)
	if perCycle > 0.01 {
		t.Fatalf("observer-off Machine.Run allocated %.4f times per cycle (%d allocs over %d cycles); want ~0",
			perCycle, allocs, r.Cycles)
	}
}

// TestClassifyLoadZeroAllocs: stall attribution classifies the head
// load on every stalled node-cycle, so ClassifyLoad must not allocate.
// The guard steps a 4-node mesh machine to the first cycle some node
// holds a load waiting on a broadcast the interconnect carries, and
// classifies that load there: the slot lookup, the episode, and the
// mesh's DataPhase over its live headers.
func TestClassifyLoadZeroAllocs(t *testing.T) {
	m := buildMachine(t, streamSum, 4, func(c *Config) { c.Topology.Kind = bus.TopoMesh })
	for now := uint64(0); now < 100_000; now++ {
		if _, done, err := m.Step(now); done || err != nil {
			t.Fatalf("cycle %d: done=%v err=%v before any load waited on a broadcast", now, done, err)
		}
		for _, nd := range m.nodes {
			for i := range nd.loads {
				s := &nd.loads[i]
				if !s.live || s.e == nil || !s.e.pending || m.net.DataPhase(s.e.line, nd.id, now) == bus.PhaseAbsent {
					continue
				}
				var kind obs.StallKind
				if allocs := testing.AllocsPerRun(1000, func() {
					kind = nd.ClassifyLoad(now, s.tok, s.e.line)
				}); allocs != 0 {
					t.Fatalf("ClassifyLoad allocated %.2f times per call", allocs)
				}
				if kind != obs.StallNetContention && kind != obs.StallESPSerial && kind != obs.StallMemRemote {
					t.Fatalf("load waiting on a broadcast classified %v", kind)
				}
				return
			}
		}
	}
	t.Fatal("no load waited on a broadcast in flight")
}
