package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// pinsFile holds the pinned fingerprints, relative to the repository root.
const pinsFile = "bench/fingerprints.json"

//go:embed fingerprints.json
var pinsJSON []byte

// pinSeeds are the seeds whose outputs -pin records for every workload
// at its own size. The canary, the workload's small size at canarySeed,
// is pinned under canaryKey.
var pinSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

const (
	canarySeed = 1
	canaryKey  = "canary"
)

// pins maps workload -> seed (or canaryKey) -> one hex fingerprint per
// operation of a pass.
type pins map[string]map[string][]string

func loadPins(data []byte) (pins, error) {
	p := pins{}
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", pinsFile, err)
	}
	return p, nil
}

// forRun returns the pinned fingerprints of a run at the workload's own
// size, or nil when that seed is not pinned.
func (p pins) forRun(w *workload, seed uint64, pr params) []uint64 {
	if pr != w.params {
		return nil
	}
	fps, _ := p.lookup(w, strconv.FormatUint(seed, 10))
	return fps
}

func (p pins) lookup(w *workload, key string) ([]uint64, bool) {
	hex, ok := p[w.name][key]
	if !ok {
		return nil, false
	}
	out := make([]uint64, len(hex))
	for i, h := range hex {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// pin records the fingerprints of one pass for each pinned seed and for
// the canary.
func pin(p pins, w *workload, o runOpts) error {
	seeds := map[string][]string{}
	for _, seed := range pinSeeds {
		hex, err := pinPass(w, seed, w.params, o)
		if err != nil {
			return err
		}
		seeds[strconv.FormatUint(seed, 10)] = hex
	}
	hex, err := pinPass(w, canarySeed, w.canary, o)
	if err != nil {
		return err
	}
	seeds[canaryKey] = hex
	p[w.name] = seeds
	return nil
}

// pinPass fingerprints one pass, after checking that a one-worker pass
// reproduces it. It refuses a pass with any failed operation.
func pinPass(w *workload, seed uint64, pr params, o runOpts) ([]string, error) {
	run, err := w.setup(seed, pr, o.env)
	if err != nil {
		return nil, err
	}
	many := run(&passCtx{workers: o.workers})
	one := run(&passCtx{workers: 1})
	var hex []string
	for i, op := range many.ops {
		if op.err != "" {
			return nil, fmt.Errorf("%s seed %d op %d: %s; not pinning", w.name, seed, i, op.err)
		}
		if one.ops[i].fp != op.fp {
			return nil, fmt.Errorf("%s seed %d op %d: %d workers and 1 worker disagree; not pinning", w.name, seed, i, o.workers)
		}
		hex = append(hex, fmt.Sprintf("%016x", op.fp))
	}
	return hex, nil
}

func writePins(p pins, path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
