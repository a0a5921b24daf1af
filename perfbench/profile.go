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

// This file folds a runtime/pprof CPU profile onto the repository's
// layers. It decodes the few fields of the profile.proto message it
// needs (samples, locations, functions, string table) by hand, so the
// benchmark depends on the standard library alone.

const (
	// gcLayer collects samples with no layer frame that belong to the
	// garbage collector (background mark workers, sweeping, scavenging).
	gcLayer = "runtime.gc"
	// otherLayer collects every remaining sample: HTTP and JSON work
	// outside the server package, the benchmark's own client, scheduling.
	otherLayer = "other"
)

// repoPrefix is the import path prefix of the repository's packages.
const repoPrefix = "repro/internal/"

// yardstickPrefix names the host-speed yardstick's methods. Their samples
// are dropped: the yardstick runs between timed stretches and is no part
// of the workload.
const yardstickPrefix = "main.(*yardstick)."

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function ids, innermost
	// inlined frame first.
	locFuncs map[uint64][]uint64
	// funcName maps a function id to its string-table index.
	funcName map[uint64]uint64
	strings  []string
}

// profSample is one stack (leaf first) and its values.
type profSample struct {
	locs   []uint64
	values []int64
}

// foldProfile decodes a gzipped CPU profile and returns each layer's
// share of the samples outside the yardstick: every cpuFracLayers entry
// plus gcLayer and otherLayer, summing to 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		l := p.layerOf(s.locs)
		if l == "" {
			continue
		}
		counts[l] += s.values[0]
		total += s.values[0]
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	fracs := map[string]float64{gcLayer: 0, otherLayer: 0}
	for _, l := range cpuFracLayers {
		fracs[l] = 0
	}
	for l, n := range counts {
		fracs[l] = float64(n) / float64(total)
	}
	return fracs, nil
}

// layerOf folds a stack onto its innermost frame in one of the
// measured layers, so runtime work (map lookups, allocation) lands on
// the layer that caused it. Repository packages off the layer list
// (arch, workloads) are skipped over to their caller. Yardstick samples
// fold to "".
func (p *profile) layerOf(locs []uint64) string {
	gc := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := p.name(fn)
			if strings.HasPrefix(name, yardstickPrefix) {
				return ""
			}
			if rest, ok := strings.CutPrefix(name, repoPrefix); ok {
				pkg := rest
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					pkg = rest[:i]
				}
				for _, l := range cpuFracLayers {
					if l == pkg {
						return l
					}
				}
				continue
			}
			if strings.HasPrefix(name, "runtime.gc") || name == "runtime.bgsweep" || name == "runtime.bgscavenge" {
				gc = true
			}
		}
	}
	if gc {
		return gcLayer
	}
	return otherLayer
}

func (p *profile) name(fn uint64) string {
	i, ok := p.funcName[fn]
	if !ok || i >= uint64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

// parseProfile decodes the fields foldProfile needs.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(f field) error {
		switch f.num {
		case profSampleField:
			var s profSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case sampleLocationField:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case sampleValueField:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case locationIDField:
					id = g.val
				case locationLineField:
					return eachField(g.data, func(h field) error {
						if h.num == lineFunctionField {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunctionField:
			var id, name uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case functionIDField:
					id = g.val
				case functionNameField:
					name = g.val
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// field is one decoded protobuf field: a varint value (wire type 0) or
// a length-delimited payload (wire type 2).
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// uints yields a repeated integer field's values, packed or not.
func (f field) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.val)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message's fields in order.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
