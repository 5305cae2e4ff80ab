package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pbuf is a minimal protobuf encoder for building profile fixtures.
type pbuf []byte

func (p *pbuf) varint(field int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3), v)
}

func (p *pbuf) bytes(field int, b []byte) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(field)<<3|2), uint64(len(b)))
	*p = append(*p, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytes(field, b)
}

// fixtureSample is one CPU sample: a stack of locations, leaf first,
// where each location lists its functions innermost (inlined) first.
type fixtureSample struct {
	stack  [][]string
	millis int64
	packed bool // encode location ids packed, as runtime/pprof does
}

// buildProfile encodes samples as a pprof profile with the sample types
// runtime/pprof writes (samples/count, cpu/nanoseconds).
func buildProfile(samples []fixtureSample) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	for i, s := range strs {
		strIdx[s] = uint64(i)
	}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strs = append(strs, s)
		strIdx[s] = uint64(len(strs) - 1)
		return strIdx[s]
	}
	var prof pbuf
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbuf
		m.varint(1, intern(vt[0]))
		m.varint(2, intern(vt[1]))
		prof.bytes(1, m)
	}
	funcIDs := map[string]uint64{}
	var funcs, locs pbuf
	nextLoc := uint64(0)
	for _, s := range samples {
		var ids []uint64
		for _, loc := range s.stack {
			nextLoc++
			var l pbuf
			l.varint(1, nextLoc)
			for _, fn := range loc {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					var f pbuf
					f.varint(1, id)
					f.varint(2, intern(fn))
					funcs.bytes(5, f)
				}
				var line pbuf
				line.varint(1, id)
				line.varint(2, 42)
				l.bytes(4, line)
			}
			locs.bytes(4, l)
			ids = append(ids, nextLoc)
		}
		var m pbuf
		if s.packed {
			m.packed(1, ids...)
		} else {
			for _, id := range ids {
				m.varint(1, id)
			}
		}
		m.packed(2, 1, uint64(s.millis*1e6))
		prof.bytes(2, m)
	}
	prof = append(append(prof, locs...), funcs...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	return prof
}

func TestReduceProfile(t *testing.T) {
	samples := []fixtureSample{
		// A runtime callee is charged to its innermost repository caller.
		{stack: [][]string{{"runtime.mallocgc"}, {"repro/internal/des.(*Engine).Run"}, {"repro/internal/sim.Run"}}, millis: 10, packed: true},
		// An inlined function is the innermost frame of its location.
		{stack: [][]string{{"repro/internal/simtime.Time.Add", "repro/internal/node.(*Node).dispatch"}, {"repro/internal/sim.Run"}}, millis: 20},
		// The longest matching package wins over its parent...
		{stack: [][]string{{"repro/internal/obs/attrib.Analyze"}, {"main.bundle"}}, millis: 30, packed: true},
		// ...and a package without an entry of its own falls to its parent.
		{stack: [][]string{{"repro/internal/obs/serve.(*Hub).publish"}}, millis: 5},
		// GC background workers go to runtime.gc.
		{stack: [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, millis: 40, packed: true},
		// No repository frame at all.
		{stack: [][]string{{"runtime.futex"}, {"runtime.mstart"}}, millis: 7},
		// Type arguments naming other packages do not confuse the match.
		{stack: [][]string{{"repro/internal/par.Map[go.shape.struct { repro/internal/des.x int }].func1"}}, millis: 3, packed: true},
		// The benchmark's own code.
		{stack: [][]string{{"main.(*counter).OnEnqueue"}, {"repro/internal/node.(*Node).Enqueue"}}, millis: 2},
		// Fleet expansion counts inclusively; self time stays with rng.
		{stack: [][]string{{"repro/internal/rng.(*Stream).Float64"}, {"repro/internal/scenario.(*Fleet).expand"}, {"repro/internal/scenario.runStress"}}, millis: 11, packed: true},
	}
	raw := buildProfile(samples)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"gzipped": gz.Bytes(), "plain": raw} {
		t.Run(name, func(t *testing.T) {
			p, err := parseProfile(data)
			if err != nil {
				t.Fatal(err)
			}
			lt, err := reduceProfile(p)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]float64{
				"des": 0.010, "simtime": 0.020, "attrib": 0.030, "obs": 0.005, "runtime.gc": 0.040,
				"other": 0.007, "par": 0.003, "bench": 0.002, "rng": 0.011,
			}
			for _, l := range profileLayers() {
				if math.Abs(lt.self[l]-want[l]) > 1e-12 {
					t.Errorf("%s.self_s = %v, want %v", l, lt.self[l], want[l])
				}
			}
			if math.Abs(lt.total-0.128) > 1e-12 || math.Abs(lt.expand-0.011) > 1e-12 {
				t.Errorf("total %v expand %v, want 0.128 and 0.011", lt.total, lt.expand)
			}
			if c := lt.coverage(); math.Abs(c-(1-0.007/0.128)) > 1e-12 {
				t.Errorf("coverage = %v", c)
			}
		})
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	raw := buildProfile([]fixtureSample{{stack: [][]string{{"repro/internal/des.f"}}, millis: 1}})
	for name, data := range map[string][]byte{
		"truncated":   raw[:len(raw)-3],
		"bad varint":  {0x08, 0xff},
		"wire type 3": {0x0b},
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A profile without CPU values cannot be reduced.
	var p pbuf
	var vt pbuf
	vt.varint(1, 1)
	vt.varint(2, 2)
	p.bytes(1, vt)
	p.bytes(6, nil)
	p.bytes(6, []byte("alloc_space"))
	p.bytes(6, []byte("bytes"))
	prof, err := parseProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reduceProfile(prof); err == nil {
		t.Error("reduced a profile with no cpu/nanoseconds values")
	}
}
