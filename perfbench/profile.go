package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); the few messages read
// here are decoded by hand so the benchmark needs no module beyond the
// standard library.

// module is the import path prefix of the code under test.
const module = "github.com/hpcbench/beff"

// layers are the repository packages reported as layers of their own,
// in reporting order. Samples in any other internal package count as
// "other", samples in the benchmark's own code as "bench", and samples
// with no repository frame at all as "runtime".
var layers = []string{
	"des", "simnet", "mpi", "core", "machine",
	"simfs", "mpiio", "beffio", "workload",
	"runner", "store", "serve", "report", "obs", "check",
	"other", "bench", "runtime",
}

// frameLayer names the layer a function belongs to, or "" for a
// function outside the repository (Go runtime, standard library).
func frameLayer(fn string) string {
	const internal = module + "/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, module+"/perfbench."):
		return "bench"
	}
	return ""
}

// stackLayer charges one stack (leaf first) to the innermost repository
// frame: runtime and standard-library frames such as allocation,
// channel handoff or map access count towards the repository code that
// called them. A stack with no repository frame is "runtime".
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// selfFractions charges every sample to its layer and returns each
// layer's share of the total sample weight. Every entry of layers is
// present, so the shares sum to 1 whenever there was a sample.
func selfFractions(stacks [][]string, weights []int64) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total float64
	for i, st := range stacks {
		w := float64(weights[i])
		out[stackLayer(st)] += w
		total += w
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile into its stacks
// (function names, leaf first, inlined frames expanded) and each
// stack's weight: CPU nanoseconds where the profile records them, the
// sample count otherwise.
func parseProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string-table index
		strs      []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := ""
				if i := funcNames[fid]; i >= 0 && i < int64(len(strs)) {
					name = strs[i]
				}
				st = append(st, name)
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field
// number and either the varint value (wire type 0) or the payload
// (wire type 2). Fixed-width fields are skipped; the profile messages
// read here use none.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint, payload nil) or packed (payload of varints).
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
