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

// layers are the repository modules the ledger attributes CPU to, in
// report order. Samples in the Go runtime count as "runtime"; everything
// else (the standard library outside the runtime, this benchmark, the
// experiments and sweep harnesses) counts as "other".
var layers = []string{"runtime", "sim", "machine", "mesh", "pfs", "ionode", "ufs", "disk", "prefetch", "workload", "stats", "other"}

// layerOf maps a fully qualified function name, as a CPU profile records
// it, to its layer.
func layerOf(fn string) string {
	// Type arguments may contain package paths; the function's own
	// package ends before them.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// cpuByLayer decodes a gzipped CPU profile as runtime/pprof writes it and
// returns each layer's share of the flat samples (the leaf frame's
// function decides, innermost inlined function first) and the sample
// count. It implements just enough of the profile.proto wire format for
// that: samples, locations with their lines, functions and the string
// table.
func cpuByLayer(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		byLeaf   = map[uint64]int64{}  // leaf location id -> samples
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var loc uint64
			var count int64
			haveLoc, haveCount := false, false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id; the first is the leaf
					if !haveLoc {
						if b != nil {
							v, _ = binary.Uvarint(b)
						}
						loc, haveLoc = v, true
					}
				case 2: // value; the first is the sample count
					if !haveCount {
						if b != nil {
							v, _ = binary.Uvarint(b)
						}
						count, haveCount = int64(v), true
					}
				}
				return nil
			})
			byLeaf[loc] += count
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if !haveLine {
						haveLine = true
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	by := map[string]int64{}
	var total int64
	for loc, count := range byLeaf {
		layer := "other"
		if si, ok := funcName[leafFunc[loc]]; ok && si >= 0 && si < int64(len(strs)) {
			layer = layerOf(strs[si])
		}
		by[layer] += count
		total += count
	}
	frac := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			frac[l] = float64(by[l]) / float64(total)
		}
	}
	return frac, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// bytes. Packed repeated varints arrive as bytes; callers that take only
// the first element decode it with binary.Uvarint.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)] // never nil: msg is not
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
