package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with just enough of a protobuf decoder to attribute
// each sample's leaf frame to a layer of the simulator.

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "github.com/wisc-arch/datascalar/internal/"

// layerOf maps a fully qualified Go function name, and the file that
// defines it, to its layer: the simulator package it belongs to (emu,
// ooo, core, ...), "runtime" for the Go runtime (scheduler, allocator,
// GC), "bench" for this program and "other" for everything else. The
// fault layer also owns the machine's fault hooks (core/fault.go), and
// the parallel engine (core/parallel.go) is reported on its own.
func layerOf(fn, file string) string {
	pkg, _, _ := strings.Cut(fn, "[") // drop generic type arguments
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		switch base := path.Base(file); {
		case strings.HasPrefix(base, "fault"):
			return "fault"
		case base == "parallel.go":
			return "parallel"
		}
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, modulePrefix), "/")
		return layer
	case pkg == "main":
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a CPU profile and returns each layer's share of the
// samples, by leaf frame.
func cpuShares(profile []byte) (map[string]float64, error) {
	leaves, err := leafSamples(profile)
	if err != nil {
		return nil, err
	}
	by := map[string]int64{}
	var total int64
	for f, n := range leaves {
		by[layerOf(f.name, f.file)] += n
		total += n
	}
	shares := map[string]float64{}
	for layer, n := range by {
		shares[layer] = float64(n) / float64(max(total, 1))
	}
	return shares, nil
}

// frame is a function and the file defining it.
type frame struct{ name, file string }

// leafSamples decodes a gzipped profile.proto and returns the sample
// count (the first sample value) by leaf frame. Inlined frames resolve
// to the innermost function.
func leafSamples(profile []byte) (map[frame]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		locLeaf   = map[uint64]uint64{}   // location id → innermost function id
		funcs     = map[uint64][2]int64{} // function id → string indexes of name and file
		sampleLoc []uint64                // leaf location per sample
		sampleVal []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			sampleLoc = append(sampleLoc, locs[0])
			sampleVal = append(sampleVal, vals[0])
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // the first Line is the innermost frame
					haveLine = true
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id uint64
			var name [2]int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name[0] = int64(v)
				case 4:
					name[1] = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := map[frame]int64{}
	for i, loc := range sampleLoc {
		idx := funcs[locLeaf[loc]]
		out[frame{str(idx[0]), str(idx[1])}] += sampleVal[i]
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values, packed
// (length-delimited) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type and payload: v for varints, b for length-delimited
// fields. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
