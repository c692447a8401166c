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

// This file reads the CPU profile runtime/pprof writes (a gzipped
// profile.proto message) with the standard library only, and folds its
// samples into the simulator's layers.

// pkgLayer maps morrigan/internal packages to ledger layers. Packages
// absent here, other than helperPkgs, fold into "other" (runner, machine
// build); garbage collection is "runtime".
var pkgLayer = map[string]string{
	"trace":       "trace",
	"tracestore":  "trace",
	"sampling":    "sampling",
	"sim":         "sim",
	"cache":       "cache",
	"tlb":         "tlb",
	"ptw":         "ptw",
	"pagetable":   "ptw",
	"tlbprefetch": "tlbprefetch",
	"core":        "tlbprefetch",
	"icache":      "icache",
	"cpu":         "cpu",
}

// helperPkgs hold small shared helpers; their time belongs to the caller.
var helperPkgs = map[string]bool{"arch": true, "stats": true}

const (
	internalPrefix = "morrigan/internal/"
	fastForwardFn  = "morrigan/internal/sim.(*Simulator).FastForward"
)

// layerOf attributes one sample, given its stack from the leaf outwards
// with inlined frames expanded. Garbage collection goes to "runtime"
// wherever it runs; otherwise the innermost morrigan/internal frame decides,
// so stdlib and runtime frames count for their nearest morrigan caller. Sim
// glue running under FastForward is split out as "sim.ff".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime"
		}
	}
	for i, fn := range stack {
		pkg, ok := internalPkg(fn)
		if !ok || helperPkgs[pkg] {
			continue
		}
		layer, ok := pkgLayer[pkg]
		if !ok {
			return "other"
		}
		if layer == "sim" {
			for _, outer := range stack[i:] {
				if outer == fastForwardFn {
					return "sim.ff"
				}
			}
		}
		return layer
	}
	return "other"
}

// internalPkg returns the morrigan/internal package a function belongs to.
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// fold parses a gzipped CPU profile and returns CPU nanoseconds per layer
// and in total.
func fold(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	vi := p.cpuValueIndex()
	layers := make(map[string]int64, len(layerMetric))
	var total int64
	var stack []string
	for _, s := range p.samples {
		var v int64
		switch {
		case vi >= 0 && vi < len(s.values):
			v = s.values[vi]
		case vi < 0 && len(s.values) > 0:
			v = s.values[0] * p.period
		default:
			return nil, 0, errors.New("profile: sample lacks a value")
		}
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.functions[fid])
			}
		}
		layers[layerOf(stack)] += v
		total += v
	}
	return layers, total, nil
}

// profile holds the parts of profile.proto the fold needs.
type profile struct {
	strings    []string
	sampleType [][2]int64 // (type, unit) string indices
	samples    []sample
	locations  map[uint64][]uint64 // location id -> function ids, leaf first
	functions  map[uint64]string   // function id -> name
	period     int64
}

type sample struct {
	locations []uint64
	values    []int64
}

// cpuValueIndex returns the index of the cpu/nanoseconds sample value, or
// -1 when the profile only counts samples (then count × period is used).
func (p *profile) cpuValueIndex() int {
	for i, st := range p.sampleType {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			return i
		}
	}
	return -1
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// profile.proto field numbers.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
	fProfilePeriod     = 12

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{
		locations: map[uint64][]uint64{},
		functions: map[uint64]string{},
	}
	funcNames := map[uint64]int64{} // function id -> name string index
	err := eachField(b, func(f field) error {
		switch f.num {
		case fProfileSampleType:
			var vt [2]int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fValueTypeType:
					vt[0] = int64(g.varint)
				case fValueTypeUnit:
					vt[1] = int64(g.varint)
				}
				return nil
			})
			p.sampleType = append(p.sampleType, vt)
			return err
		case fProfileSample:
			var s sample
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fSampleLocation:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case fSampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fLocationID:
					id = g.varint
				case fLocationLine:
					return eachField(g.bytes, func(h field) error {
						if h.num == fLineFunction {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g field) error {
				switch g.num {
				case fFunctionID:
					id = g.varint
				case fFunctionName:
					name = int64(g.varint)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(f.bytes))
		case fProfilePeriod:
			p.period = int64(f.varint)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The string table may follow the functions that index it.
	for id, name := range funcNames {
		p.functions[id] = p.str(name)
	}
	return p, nil
}

// field is one decoded protobuf field: varint holds wire type 0 values,
// bytes wire type 2 payloads.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// uints yields the field's unsigned values, whether packed or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire == wireVarint {
		yield(f.varint)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField decodes a protobuf message, calling fn for every field.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
