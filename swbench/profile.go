package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to fold each sample's stack into a layer.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one profile sample: its stack as function names, leaf first,
// inlined frames expanded, and its sample count.
type sample struct {
	stack []string
	count int64
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					s.values = appendUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("parse profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		smp := sample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					smp.stack = append(smp.stack, strs[i])
				}
			}
		}
		out = append(out, smp)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed (b != nil) or not.
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("short fixed field")
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// layerOf folds a stack (leaf first) into the layer its CPU time is billed
// to: the stopwatch/internal/<pkg> of the leaf frame; else "gc" when the
// stack runs garbage collection (background marking, assists, sweeping);
// else the nearest stopwatch/internal caller of a runtime or library
// helper (map lookups, allocation, copying); else "runtime" for scheduler
// and idle frames with no program caller; else "other".
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if l, ok := internalLayer(stack[0]); ok {
		return l
	}
	for _, f := range stack {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for _, f := range stack[1:] {
		if l, ok := internalLayer(f); ok {
			return l
		}
	}
	if pkg := funcPackage(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/") {
		return "runtime"
	}
	return "other"
}

// internalLayer maps a function in stopwatch/internal/<pkg>[/...] to <pkg>.
func internalLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(funcPackage(fn), "stopwatch/internal/")
	if !ok {
		return "", false
	}
	layer, _, _ := strings.Cut(rest, "/")
	return layer, true
}

// funcPackage returns a pprof function name's package path: everything
// before the first '.' after the last '/' (type arguments ignored).
func funcPackage(fn string) string {
	fn, _, _ = strings.Cut(fn, "[")
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isGCFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, s := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.wbBuf", "sweep", "scavenge"} {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// foldShares returns each layer's share of all samples.
func foldShares(samples []sample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[layerOf(s.stack)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(by))
	for l, n := range by {
		out[l] = float64(n) / float64(max(total, 1))
	}
	return out
}
