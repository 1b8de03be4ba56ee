package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/obs"
)

// TestParallelBitIdentical is the machine-level contract of conservative
// parallel intra-run simulation: partitioning the nodes across worker
// goroutines must leave the run bit-identical to the serial loop — same
// final cycle count, same value in every counter and CPI stack, and the
// same observation stream (events in the same order with the same
// cycles, samples at the same boundaries with the same contents). The
// sweep crosses kernels, node counts, all four topologies, skip/noskip,
// and worker counts including one that divides the nodes unevenly.
// The -short variant (used by the CI race job) trims the sweep but keeps
// every topology.
func TestParallelBitIdentical(t *testing.T) {
	kernels := []struct{ name, src string }{
		{"streamSum", streamSum},
		{"pointerChase", pointerChase},
		{"storeHeavy", storeHeavy},
	}
	nodeCounts := []int{2, 4}
	workerCounts := []int{2, 3, 4}
	noSkips := []bool{false, true}
	if testing.Short() {
		kernels = kernels[:1]
		nodeCounts = []int{4}
		workerCounts = []int{2, 4}
		noSkips = []bool{false}
	}
	topologies := []bus.TopologyKind{bus.TopoBus, bus.TopoRing, bus.TopoMesh, bus.TopoTorus}
	for _, k := range kernels {
		for _, nodes := range nodeCounts {
			for _, topo := range topologies {
				for _, noSkip := range noSkips {
					t.Run(fmt.Sprintf("%s/%dnodes/%s/noskip=%v", k.name, nodes, topo, noSkip), func(t *testing.T) {
						run := func(parallel int) (Result, *obs.Trace) {
							trace := obs.NewTrace()
							m := buildMachine(t, k.src, nodes, func(c *Config) {
								c.Topology.Kind = topo
								c.Core.NoCycleSkip = noSkip
								c.ParallelNodes = parallel
								c.Observer = trace
								c.SampleInterval = 500
							})
							return mustRunMachine(t, m), trace
						}
						serial, serialTrace := run(1)
						for _, workers := range workerCounts {
							par, parTrace := run(workers)
							if !reflect.DeepEqual(serial, par) {
								t.Fatalf("parallel-nodes=%d changed the result:\nserial:   %+v\nparallel: %+v",
									workers, serial, par)
							}
							if !reflect.DeepEqual(serialTrace, parTrace) {
								t.Fatalf("parallel-nodes=%d changed the observation stream "+
									"(serial: %d events / %d samples, parallel: %d events / %d samples)",
									workers,
									serialTrace.NumEvents(), serialTrace.NumSamples(),
									parTrace.NumEvents(), parTrace.NumSamples())
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelObserverOffBitIdentical pins the observer-free path: with
// no observer attached the parallel loop buffers no events at all, and
// the Result must still match the serial loop exactly.
func TestParallelObserverOffBitIdentical(t *testing.T) {
	for _, topo := range []bus.TopologyKind{bus.TopoBus, bus.TopoMesh} {
		t.Run(topo.String(), func(t *testing.T) {
			run := func(parallel int) Result {
				m := buildMachine(t, streamSum, 4, func(c *Config) {
					c.Topology.Kind = topo
					c.ParallelNodes = parallel
				})
				return mustRunMachine(t, m)
			}
			serial := run(1)
			for _, workers := range []int{2, 4} {
				if par := run(workers); !reflect.DeepEqual(serial, par) {
					t.Fatalf("parallel-nodes=%d changed the observer-free result:\nserial:   %+v\nparallel: %+v",
						workers, serial, par)
				}
			}
		})
	}
}

// TestParallelPreservesDeadlockCycle: a wedged machine must report the
// watchdog deadlock at the identical cycle with the identical snapshot
// whether the nodes run serially or partitioned — the horizon clip at
// the first possible watchdog cycle is what makes this exact.
func TestParallelPreservesDeadlockCycle(t *testing.T) {
	errFor := func(parallel int) error {
		m := buildMachine(t, pointerChase, 2, func(c *Config) {
			c.WatchdogCycles = 1 // fires on the first idle stretch
			c.ParallelNodes = parallel
		})
		_, err := m.Run()
		return err
	}
	serialErr, parErr := errFor(1), errFor(2)
	if serialErr == nil || parErr == nil {
		t.Fatalf("watchdog did not fire: serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("deadlock reports differ:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}

// TestParallelSteadyStateAllocs bounds the partitioned loop's allocation
// behaviour: window buffers, prediction scratch, and the scratch
// interconnect are all reused, so total allocations during a run are
// dominated by warmup (buffer growth to its high-water mark) and must
// not scale with the thousands of windows a full kernel executes.
func TestParallelSteadyStateAllocs(t *testing.T) {
	m := buildMachine(t, streamSum, 4, func(c *Config) {
		c.ParallelNodes = 2
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The bound is deliberately loose (warmup growth, goroutine stacks,
	// map resizes) but far below one allocation per simulated window, so
	// a per-window leak fails it immediately.
	if allocs := after.Mallocs - before.Mallocs; allocs > 25_000 {
		t.Fatalf("parallel run allocated %d objects; window state is supposed to be reused", allocs)
	}
}
