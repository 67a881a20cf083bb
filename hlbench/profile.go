package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfByPackage decodes a CPU profile as written by runtime/pprof (a
// gzipped profile.proto message) and returns each Go package's self CPU
// time in nanoseconds: every sample is charged to the innermost function of
// its leaf frame, inlined frames included. Only the fields that needs are
// decoded.
func selfByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}  // function id -> string index
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		leafs    []uint64              // per sample: leaf location id
		values   [][]int64             // per sample: values
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 {
				leafs = append(leafs, locs[0])
				values = append(values, vals)
			}
		case 4: // Location
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if first {
						first = false
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFunc[id] = fn
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
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, loc := range leafs {
		vals := values[i]
		if len(vals) < 2 {
			return nil, errors.New("profile sample without a CPU-time value")
		}
		idx := funcName[leafFunc[loc]]
		if idx < 0 || int(idx) >= len(strs) {
			return nil, fmt.Errorf("profile function name index %d out of range", idx)
		}
		out[pkgOf(strs[idx])] += float64(vals[1])
	}
	return out, nil
}

// pkgOf returns the import path of a symbol such as
// "hyperloop/internal/rdma.(*NIC).kick" or "runtime.mallocgc".
func pkgOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := varint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := varint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
