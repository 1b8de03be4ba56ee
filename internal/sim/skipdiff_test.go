package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestCycleSkipDifferential is the end-to-end guarantee behind
// Options.noCycleSkip: every harness must produce bit-identical
// structured results — and byte-identical JSON artifacts — with the
// next-event scheduler on and off, serially and on a 4-way pool. The
// four variants cross cycle skipping with parallelism so a scheduler bug
// that only shows under worker interleaving still fails here.
func TestCycleSkipDifferential(t *testing.T) {
	variants := []struct {
		name   string
		noSkip bool
		par    int
	}{
		{"skip/serial", false, 1},
		{"skip/parallel4", false, 4},
		{"noskip/serial", true, 1},
		{"noskip/parallel4", true, 4},
	}
	for _, h := range harnesses {
		h := h
		t.Run(h.name, func(t *testing.T) {
			if testing.Short() && !h.cheap {
				t.Skip("heavy timing sweep skipped in short mode")
			}
			t.Parallel()
			var ref any
			var refJSON []byte
			for _, v := range variants {
				opts := detOpts(v.par)
				opts.noCycleSkip = v.noSkip
				res, err := h.run(context.Background(), opts)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				var buf bytes.Buffer
				if err := WriteJSON(&buf, res); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if ref == nil {
					ref, refJSON = res, buf.Bytes()
					continue
				}
				if !reflect.DeepEqual(ref, res) {
					t.Fatalf("results differ between %s and %s:\n%s: %+v\n%s: %+v",
						variants[0].name, v.name, variants[0].name, ref, v.name, res)
				}
				if !bytes.Equal(refJSON, buf.Bytes()) {
					t.Fatalf("JSON artifacts differ between %s and %s", variants[0].name, v.name)
				}
			}
		})
	}
}
