package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenJSON pins every op's simulated result. A change that only
// speeds up the simulator must leave all of them bit-identical.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile maps workload → seed → op name → sha256 of the op's result
// JSON. Workloads whose ops ignore the seed are filed under "any".
type goldenFile map[string]map[string]map[string]string

// goldenSeeds are the seeds -update-golden records for seeded workloads.
var goldenSeeds = []uint64{1, 2}

func seedKey(w workloadDef, seed uint64) string {
	if !w.Seeded {
		return "any"
	}
	return strconv.FormatUint(seed, 10)
}

// goldenFor returns the committed digests for a workload at a seed, or
// nil when none are committed.
func goldenFor(w workloadDef, seed uint64) (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g[w.Name][seedKey(w, seed)], nil
}

// updateGolden runs every workload once per recorded seed and writes the
// digests to path.
func updateGolden(path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		seeds := []uint64{0}
		if w.Seeded {
			seeds = goldenSeeds
		}
		g[w.Name] = map[string]map[string]string{}
		for _, seed := range seeds {
			ops := w.Ops(seed, fullBudgets)
			p := runPass(ops, nil, newVerifier(nil))
			if len(p.Failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.Name, seed, p.Failures[0])
			}
			digests := map[string]string{}
			for i, o := range ops {
				digests[o.Name] = p.Runs[i].Digest
			}
			g[w.Name][seedKey(w, seed)] = digests
		}
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
