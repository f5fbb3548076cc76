package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run profiles the benchmark's own process and charges every CPU
// sample to one layer: the innermost stack frame in one of the program's
// packages decides, so a map lookup or an allocation made by gcs code is gcs
// time. Samples with no program frame are background garbage collection
// (charged to gc) or the Go scheduler, the benchmark harness and the
// program's other packages (charged to other).

// layers are the program's modules the per-layer metrics are reported for,
// in report order. gc and other collect the samples no module frame claims.
var layers = []string{
	"sim", "netsim", "wire", "gcs", "core", "placement", "invariant",
	"faults", "flow", "load", "realtime", "gc", "other",
}

// layerPackages maps an import path to its layer.
var layerPackages = map[string]string{
	"wackamole/internal/sim":          "sim",
	"wackamole/internal/netsim":       "netsim",
	"wackamole/internal/wire":         "wire",
	"wackamole/internal/gcs":          "gcs",
	"wackamole/internal/core":         "core",
	"wackamole/internal/placement":    "placement",
	"wackamole/internal/invariant":    "invariant",
	"wackamole/internal/faults":       "faults",
	"wackamole/internal/flow":         "flow",
	"wackamole/internal/load":         "load",
	"wackamole/internal/env/realtime": "realtime",
}

// gcRoots are the entry points of the runtime's background collector
// goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// funcPackage returns the import path of a Go function symbol such as
// "wackamole/internal/gcs.(*Daemon).onToken.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ownFrame reports whether fn belongs to the program (a wackamole package)
// or to the benchmark itself (package main), and if so which layer it is
// charged to.
func ownFrame(fn string) (string, bool) {
	pkg := funcPackage(fn)
	if l, ok := layerPackages[pkg]; ok {
		return l, true
	}
	if pkg == "main" || pkg == "wackamole" || strings.HasPrefix(pkg, "wackamole/") {
		return "other", true
	}
	return "", false
}

// attribute charges one stack, innermost frame first, to a layer.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := ownFrame(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return "other"
}

// profiler records a CPU profile of the process into memory.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU nanoseconds per layer.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	for _, s := range stacks {
		byLayer[attribute(s.frames)] += float64(s.cpuNanos)
	}
	return byLayer, nil
}

// stackSample is one decoded profile sample.
type stackSample struct {
	frames   []string // function names, innermost first (inlined frames expanded)
	cpuNanos int64
}

// parseProfile decodes a gzipped pprof protocol buffer (the format
// runtime/pprof writes) into its samples. Only the fields the attribution
// needs are read: samples, locations, functions and the string table.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		nTypes    int
		period    int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var ss stackSample
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					ss.frames = append(ss.frames, strs[idx])
				}
			}
		}
		// Go CPU profiles carry [samples/count, cpu/nanoseconds]; older
		// single-value profiles are scaled by the sampling period.
		switch {
		case nTypes >= 2 && len(s.values) >= 2:
			ss.cpuNanos = s.values[1]
		case len(s.values) >= 1:
			ss.cpuNanos = s.values[0] * period
		}
		out = append(out, ss)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks the fields of one protocol-buffer message, handing fn the
// field number, wire type, the value of varint and fixed-width fields and
// the bytes of length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
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
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
