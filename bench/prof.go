package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the gzipped protobuf runtime/pprof writes — just
// enough of profile.proto to attribute each CPU sample to the package
// of its leaf function. In-tree so the benchmark adds no module
// dependency and needs no `go tool pprof` at run time.

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint too long")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (r *pbReader) next() (field int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return
		}
		if uint64(len(r.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: wire type %d", key&7)
	}
	return
}

// repeatedVarints reads a repeated integer field in either encoding:
// packed (data) or one value per occurrence (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// leafSamples decodes one CPU profile and returns, per leaf function
// name, the number of samples (value 0 of each sample: "samples/count").
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type sample struct {
		leaf  uint64 // location id
		count int64
	}
	var samples []sample
	locFunc := make(map[uint64]uint64)  // location id -> innermost function id
	funcName := make(map[uint64]uint64) // function id -> string index
	var strs []string

	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					locs, err = repeatedVarints(locs, v, d)
				case 2:
					vals, err = repeatedVarints(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost (inlined) frame
					if seenLine {
						continue
					}
					seenLine = true
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// funcPackage extracts the import path from a symbol name:
// "darpanet/internal/sim.(*Kernel).Step" → "darpanet/internal/sim",
// "runtime.mallocgc" → "runtime". A bare symbol with no package at all
// ("memeqbody", "aeshashbody") is one of the runtime's assembly bodies.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}

// cpuLayers are the layers that get a *.cpu_share of their own; every
// other package's samples land in bench.other_cpu_share, so the shares
// of one workload sum to 1.
var cpuLayers = []string{"sim", "packet", "ipv4", "phys", "stack", "udp", "tcp", "rip", "names", "topo", "core", "workload", "harness", "runtime"}

// layerOfPackage maps an import path to the layer that owns its CPU
// time. exp is harness's other half (drivers the campaign replicates);
// the Go runtime — allocator, GC, scheduler, memmove — is a layer of its
// own because campaign_mc lives there.
func layerOfPackage(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "darpanet/internal/"); ok {
		if rest == "exp" {
			return "harness"
		}
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/cpu" {
		return "runtime"
	}
	return "other"
}

// cpuShares aggregates leaf-function sample counts by layer and
// normalises them to shares that sum to 1 (all zero for no samples).
func cpuShares(byFunc map[string]int64) map[string]float64 {
	byLayer := make(map[string]int64)
	var total int64
	for fn, n := range byFunc {
		byLayer[layerOfPackage(funcPackage(fn))] += n
		total += n
	}
	out := make(map[string]float64, len(cpuLayers)+1)
	for _, l := range append([]string{"other"}, cpuLayers...) {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
