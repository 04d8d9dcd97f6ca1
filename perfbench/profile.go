package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the pprof profile.proto format, enough to charge
// every sample to a layer: sample types, samples, locations (with their
// inlined lines) and function names. The benchmark must build from the
// standard library alone, so it cannot import a pprof package.

type valueType struct{ typ, unit string }

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

type profile struct {
	sampleTypes []valueType
	samples     []sample
	// frames maps a location id to its function names, innermost
	// inlined function first.
	frames map[uint64][]string
}

// parseProfile decodes a profile as written by runtime/pprof, gzipped
// or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		rawTypes  [][2]int64
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		p         = &profile{frames: map[uint64][]string{}}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			rawTypes = append(rawTypes, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locations, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
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
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			funcNames[id] = name
		case 6: // string_table
			if wire != 2 {
				return errors.New("profile: string table entry is not bytes")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, t := range rawTypes {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, valueType{typ, unit})
	}
	for loc, fns := range locLines {
		names := make([]string, len(fns))
		for i, fn := range fns {
			idx, ok := funcNames[fn]
			if !ok {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
			}
			if names[i], err = str(idx); err != nil {
				return nil, err
			}
		}
		p.frames[loc] = names
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(s.values), len(p.sampleTypes))
		}
		for _, loc := range s.locations {
			if _, ok := p.frames[loc]; !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", loc)
			}
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the
// bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// The layers samples are charged to: the simulator's packages under
// dmetabench/internal, "other" for any further internal package,
// "bench" for this benchmark's own code, and "runtime.unattributed"
// for samples with no repository frame at all (GC workers, the
// scheduler on its own stack).
var layers = []string{
	"core", "sim", "simnet", "clientcache", "namespace", "nfs", "lustre",
	"shard", "storage", "service", "agg", "results", "workload", "cluster",
	"fs", "other", "bench",
}

const unattributed = "runtime.unattributed"

// layerOf charges a stack, given leaf first, to the package of its
// innermost repository frame.
func layerOf(p *profile, locations []uint64) string {
	for _, loc := range locations {
		for _, fn := range p.frames[loc] {
			if l, ok := frameLayer(fn); ok {
				return l
			}
		}
	}
	return unattributed
}

func frameLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "dmetabench/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	return "", false
}

// byLayer sums sample value typ (e.g. "cpu" or "alloc_objects") per
// layer.
func (p *profile) byLayer(typ string) (map[string]int64, error) {
	idx, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		out[layerOf(p, s.locations)] += s.values[idx]
	}
	return out, nil
}

// gcValue sums sample value typ over the stacks doing garbage-collection
// work, whichever layer they are charged to: a mark assist counts both
// here and against the layer whose allocation triggered it.
func (p *profile) gcValue(typ string) (int64, error) {
	idx, err := p.valueIndex(typ)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range p.samples {
		if p.inGC(s.locations) {
			n += s.values[idx]
		}
	}
	return n, nil
}

func (p *profile) inGC(locations []uint64) bool {
	for _, loc := range locations {
		for _, fn := range p.frames[loc] {
			switch {
			case strings.HasPrefix(fn, "runtime.gc"), // workers, assists, write barriers
				fn == "runtime.bgsweep", fn == "runtime.bgscavenge", fn == "runtime.sweepone",
				fn == "runtime.markroot", fn == "runtime.scanobject":
				return true
			}
		}
	}
	return false
}

func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t.typ == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no sample type %q", typ)
}
