package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers are the folds the traced run reports, in output order: the
// jqos packages on the packet path, gc (GC workers and assists), harness
// (the benchmark's own code) and other (everything else, mostly the Go
// scheduler).
var layers = []string{
	"jqos", "netem", "coding", "rs", "recovery", "sched", "feedback", "tenant",
	"routing", "forward", "cache", "telemetry", "wire", "load", "overlay",
	"core", "stats", "gc", "harness", "other",
}

// layerOf charges one stack (function names, innermost first) to a
// layer. A stack inside the garbage collector goes to gc. Otherwise the
// innermost frame that is jqos code or benchmark code decides, so runtime
// frames (map access, malloc, memmove) go to their jqos caller, and a
// benchmark callback invoked from jqos is not charged to jqos.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPkg+".") {
			return "harness"
		}
		if l, ok := jqosLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// benchPkg is this package's import path, the prefix its functions carry
// in a test binary (in the command they are "main.").
const benchPkg = "jqos/jqbench"

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// jqosLayer maps a function name such as
// "jqos/internal/coding.(*Recoverer).NextDeadline" to "coding", and a
// root-package function ("jqos.(*Flow).Send") to "jqos". Packages outside
// the list fold into "other".
func jqosLayer(fn string) (string, bool) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	if pkg != "jqos" && !strings.HasPrefix(pkg, "jqos/") {
		return "", false
	}
	name := pkg[strings.LastIndexByte(pkg, '/')+1:]
	for _, l := range layers {
		if l == name {
			return l, true
		}
	}
	return "other", true
}

// shares normalizes per-layer weights to fractions summing to 1.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	if total == 0 {
		total = 1
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = w[l] / total
	}
	return out
}

// foldCPU folds a gzipped pprof CPU profile by layer, weighting each
// sample by its CPU nanoseconds.
func foldCPU(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	w := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		w[layerOf(p.stack(s.locs))] += float64(s.values[len(s.values)-1])
	}
	return w, nil
}

// memStacks snapshots the allocation profile: allocated objects per
// stack, cumulative since the program started. Two GCs first publish
// every allocation up to now into the profile.
func memStacks() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// foldAllocs folds the objects allocated between two memStacks snapshots
// by layer.
func foldAllocs(before, after map[[32]uintptr]int64) map[string]float64 {
	w := make(map[string]float64)
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var funcs []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		w[layerOf(funcs)] += float64(d)
	}
	return w
}

// profile is the subset of a pprof protobuf the fold needs.
type profile struct {
	strs    []string
	funcs   map[uint64]int64    // function id → name string index
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	samples []profSample
}

type profSample struct {
	locs   []uint64 // innermost first
	values []int64
}

// stack resolves a sample's locations to function names, innermost
// first (inlined frames included).
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locs[l] {
			if i := p.funcs[fid]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// parseProfile decodes a gzipped pprof profile (profile.proto): samples,
// locations, functions and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fids
		case 5: // function
			var id uint64
			name := int64(-1)
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either as one
// unpacked value (b == nil) or as a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
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

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with the field number
// and either the varint value (b == nil) or the length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
