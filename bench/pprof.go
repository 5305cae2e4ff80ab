package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profile is the part of a pprof profile the layer reducer reads.
type profile struct {
	valueTypes []string // "type/unit" of each sample value
	samples    []profSample
	locations  map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	functions  map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a pprof protobuf, gzipped as runtime/pprof writes
// it or plain. It needs only the standard library.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs       []string
		valueTypes [][2]uint64
		funcNames  = map[uint64]uint64{}
		p          = &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	)
	err := fields(data, func(f int, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(b, func(f int, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := fields(b, func(f int, wire int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locations, err = appendVarints(s.locations, wire, v, b)
				case 2:
					var vals []uint64
					vals, err = appendVarints(nil, wire, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return fields(b, func(f int, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id 1, name 2
			var id, name uint64
			err := fields(b, func(f int, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, fmt.Errorf("pprof: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for id, si := range funcNames {
		name, err := str(si)
		if err != nil {
			return nil, err
		}
		p.functions[id] = name
	}
	for _, vt := range valueTypes {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.valueTypes = append(p.valueTypes, typ+"/"+unit)
	}
	return p, nil
}

// fields walks the protobuf fields of msg, passing varint and fixed
// values in v and length-delimited payloads in b.
func fields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		msg = msg[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// layerPkgs are the packages under repro/internal/ that the benchmark's
// workloads run. A function belongs to the longest entry that is its
// package or a parent of it; the layer is the entry's last element.
var layerPkgs = []string{
	"analysis", "des", "node", "obs", "obs/attrib", "obs/tracetree", "par", "procmgr",
	"rng", "scenario", "sda", "sim", "simtime", "stats", "svgplot", "task", "workload",
}

// Layers outside repro/internal/: the benchmark's own code (package
// main), the garbage collector's background workers, and the rest.
const (
	layerBench = "bench"
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// profileLayers lists every layer the reducer can charge, in report order.
func profileLayers() []string {
	out := make([]string, 0, len(layerPkgs)+3)
	for _, p := range layerPkgs {
		out = append(out, path.Base(p))
	}
	return append(out, layerBench, layerGC, layerOther)
}

// layerOf returns the layer of a function, or "" when the function is
// outside this repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return layerBench
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // type arguments may contain other packages' paths
	}
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		rest = rest[:slash+1+dot]
	}
	best := ""
	for _, p := range layerPkgs {
		if (rest == p || strings.HasPrefix(rest, p+"/")) && len(p) > len(best) {
			best = p
		}
	}
	if best == "" {
		return layerOther
	}
	return path.Base(best)
}

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// expandFuncs are the fleet set-up steps behind scenario.expand_s:
// template expansion, chaos compilation and the timeline merge.
var expandFuncs = []string{
	"repro/internal/scenario.(*Fleet).expand",
	"repro/internal/scenario.(*Chaos).compile",
	"repro/internal/scenario.mergeTimelines",
}

// layerTimes is the CPU time a profile charges to each layer.
type layerTimes struct {
	self   map[string]float64 // seconds per layer
	expand float64            // seconds under expandFuncs, inclusive
	total  float64            // seconds in all samples
}

// coverage is the share of CPU time charged to a named layer.
func (l layerTimes) coverage() float64 {
	if l.total == 0 {
		return 0
	}
	return 1 - l.self[layerOther]/l.total
}

// reduceProfile charges every CPU sample to one layer: the innermost
// frame (inlined frames included) that belongs to this repository, so
// standard-library and runtime callees count for their caller; samples
// of the GC's background workers go to runtime.gc, and samples with no
// repository frame to other.
func reduceProfile(p *profile) (layerTimes, error) {
	vi := -1
	for i, t := range p.valueTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return layerTimes{}, fmt.Errorf("pprof: no cpu/nanoseconds sample type in %v", p.valueTypes)
	}
	lt := layerTimes{self: map[string]float64{}}
	for _, l := range profileLayers() {
		lt.self[l] = 0
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return layerTimes{}, errors.New("pprof: sample has too few values")
		}
		sec := float64(s.values[vi]) / 1e9
		var frames []string
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				frames = append(frames, p.functions[fid])
			}
		}
		lt.total += sec
		lt.self[sampleLayer(frames)] += sec
		for _, f := range frames {
			if hasAnyPrefix(f, expandFuncs) {
				lt.expand += sec
				break
			}
		}
	}
	return lt, nil
}

// sampleLayer picks the layer for one stack, innermost frame first.
func sampleLayer(frames []string) string {
	for _, f := range frames {
		if hasAnyPrefix(f, gcWorkers) {
			return layerGC
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return layerOther
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
