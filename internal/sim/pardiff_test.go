package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/wisc-arch/datascalar/internal/bus"
	"github.com/wisc-arch/datascalar/internal/fault"
	"github.com/wisc-arch/datascalar/internal/workload"
)

// pardiffJob builds the standard 4-node DataScalar job the intra-run
// parallelism differential runs under Options.ParallelNodes.
func pardiffJob(t *testing.T, kernel string, topo bus.TopologyKind, f fault.Config) Job {
	t.Helper()
	w, ok := workload.ByName(kernel)
	if !ok {
		t.Fatalf("workload %s missing", kernel)
	}
	return Job{
		Workload: w, Scale: 1, Kind: KindDS, Nodes: 4, MaxInstr: 25_000,
		Topology: topo, Fault: f,
	}
}

// TestParallelNodesDifferential is the sim-level guarantee behind
// Options.ParallelNodes: partitioning the nodes of each DataScalar run
// across worker goroutines must leave the structured JobResult — and
// the JSON artifact built from it — byte-identical to the serial node
// loop. The sweep crosses kernels, all four topologies, the next-event
// scheduler on and off, and a no-fault versus inert (zero-rate) fault
// plan; -short (the CI race job) trims the grid but keeps every
// topology.
func TestParallelNodesDifferential(t *testing.T) {
	kernels := []string{"compress", "swim", "li"}
	noSkips := []bool{false, true}
	faultPlans := []struct {
		name string
		cfg  fault.Config
	}{
		{"nofault", fault.Config{}},
		{"inertfault", fault.Config{RetryTimeoutCycles: 777, MaxRetries: 3}},
	}
	if testing.Short() {
		kernels = kernels[:1]
		noSkips = noSkips[:1]
		faultPlans = faultPlans[:1]
	}
	for _, kernel := range kernels {
		for _, topo := range []bus.TopologyKind{bus.TopoBus, bus.TopoRing, bus.TopoMesh, bus.TopoTorus} {
			for _, noSkip := range noSkips {
				for _, fp := range faultPlans {
					kernel, topo, noSkip, fp := kernel, topo, noSkip, fp
					t.Run(fmt.Sprintf("%s/%s/noskip=%v/%s", kernel, topo, noSkip, fp.name), func(t *testing.T) {
						t.Parallel()
						run := func(parallelNodes int) ([]JobResult, []byte) {
							opts := detOpts(1)
							opts.noCycleSkip = noSkip
							opts.ParallelNodes = parallelNodes
							res, err := runJobs(context.Background(), opts.withDefaults(),
								[]Job{pardiffJob(t, kernel, topo, fp.cfg)})
							if err != nil {
								t.Fatalf("parallel-nodes=%d: %v", parallelNodes, err)
							}
							var buf bytes.Buffer
							if err := WriteJSON(&buf, res); err != nil {
								t.Fatalf("parallel-nodes=%d: %v", parallelNodes, err)
							}
							return res, buf.Bytes()
						}
						serial, serialJSON := run(1)
						for _, pn := range []int{2, 4} {
							par, parJSON := run(pn)
							if !reflect.DeepEqual(serial, par) {
								t.Fatalf("parallel-nodes=%d changed the result:\nserial:   %+v\nparallel: %+v",
									pn, serial, par)
							}
							if !bytes.Equal(serialJSON, parJSON) {
								t.Fatalf("parallel-nodes=%d changed the JSON artifact", pn)
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelNodesActiveFaultDifferential extends the differential to
// an *active* fault plan — a mid-run death with recovery. Machines with
// an active plan always run the serial node loop, so ParallelNodes must
// never change a byte of the outcome: fault counters, recovery
// trajectory, CPI stacks.
func TestParallelNodesActiveFaultDifferential(t *testing.T) {
	plan := fault.Config{Deaths: []fault.Death{{Node: 1, Cycle: 5_000}}, Recover: true,
		RetryTimeoutCycles: 1_000, MaxRetries: 3}
	run := func(parallelNodes int) []JobResult {
		opts := detOpts(1)
		opts.ParallelNodes = parallelNodes
		res, err := runJobs(context.Background(), opts.withDefaults(),
			[]Job{pardiffJob(t, "compress", bus.TopoBus, plan)})
		if err != nil {
			t.Fatalf("parallel-nodes=%d: %v", parallelNodes, err)
		}
		return res
	}
	serial := run(1)
	if serial[0].FaultStats == nil {
		t.Fatal("active fault plan built no fault layer")
	}
	if !serial[0].FaultStats.Degraded {
		t.Fatal("death plan never degraded the machine")
	}
	for _, pn := range []int{2, 4} {
		if par := run(pn); !reflect.DeepEqual(serial, par) {
			t.Fatalf("parallel-nodes=%d changed an active-fault run:\nserial:   %+v\nparallel: %+v",
				pn, serial, par)
		}
	}
}
