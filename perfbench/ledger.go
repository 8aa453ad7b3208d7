package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// layers is the ledger's row order. Every non-test file under internal/
// maps to exactly one of them through layerTable (ledger_test.go holds
// the table to that); "runtime" collects samples with no internal/ frame
// at all: the Go runtime, the standard library, and this benchmark.
var layers = []string{
	"kspace", "vrspace", "optimize", "optics", "link", "pointing", "gma",
	"geom", "galvo", "vrh", "motion", "netem",
	"core.loop", "core.supervisor", "core.handover", "core.hybrid",
	"policy", "baseline", "fault",
	"trace", "sim.event", "sim.slots", "sim.engine",
	"parallel", "obs", "xmath", "xrand",
	"arena", "analysis",
	"runtime",
}

// layerTable maps a package directory under internal/ to its layer.
// Packages split across layers (core, sim) are keyed by "dir/file.go"
// instead and have no directory entry.
var layerTable = map[string]string{
	"kspace":   "kspace",
	"vrspace":  "vrspace",
	"optimize": "optimize",
	"optics":   "optics",
	"link":     "link",
	"pointing": "pointing",
	"gma":      "gma",
	"geom":     "geom",
	"galvo":    "galvo",
	"vrh":      "vrh",
	"motion":   "motion",
	"netem":    "netem",

	"core/run.go":        "core.loop",
	"core/system.go":     "core.loop",
	"core/supervisor.go": "core.supervisor",
	"core/handover.go":   "core.handover",
	"core/hybrid.go":     "core.hybrid",
	// The standby ring (StandbysFor) that core's handover drives.
	"handover": "core.handover",
	"policy":   "policy",
	"baseline": "baseline",
	"fault":    "fault",

	"trace":               "trace",
	"sim/availability.go": "sim.event",
	"sim/chaos.go":        "sim.slots",
	"sim/hybrid.go":       "sim.slots",
	"sim/corpus.go":       "sim.engine",

	"parallel": "parallel",
	"obs":      "obs",
	"xmath":    "xmath",
	"xrand":    "xrand",
	// No workload reaches these: the multi-headset venue model and the
	// cyclops-vet engine (never linked into the benchmark).
	"arena":    "arena",
	"analysis": "analysis",
}

// unmapped is where samples in an internal/ file missing from layerTable
// land; the traced run names such files so the table can be extended.
const unmapped = "unmapped"

// layerOf resolves a package directory (relative to internal/) and a file
// base name to a layer, or unmapped.
func layerOf(pkg, file string) string {
	if l, ok := layerTable[pkg+"/"+file]; ok {
		return l
	}
	if l, ok := layerTable[pkg]; ok {
		return l
	}
	return unmapped
}

// modulePrefix marks the program's own packages in profile function names.
const modulePrefix = "cyclops/internal/"

// frameLayer returns the layer of one profile frame, or "" when the frame
// is not in internal/. The package comes from the function name (which
// carries the import path with or without -trimpath), the file from the
// frame's file name.
func frameLayer(funcName, fileName string) (layer, where string) {
	rest, ok := strings.CutPrefix(funcName, modulePrefix)
	if !ok {
		return "", ""
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", ""
	}
	pkg, file := rest[:dot], path.Base(strings.ReplaceAll(fileName, `\`, "/"))
	return layerOf(pkg, file), pkg + "/" + file
}

// fold is one profile's CPU time charged to layers.
type fold struct {
	ns      map[string]int64 // CPU nanoseconds per layer
	samples map[string]int64 // profiling ticks per layer
	total   int64            // all ticks
	missing map[string]bool  // internal/ files not in layerTable
}

// foldProfile charges each sample of a gzipped pprof CPU profile to the
// layer of its innermost internal/ frame (inlined frames included), so
// math.Exp called from optics counts as optics. Samples without such a
// frame go to "runtime".
func foldProfile(gz []byte) (fold, error) {
	f := fold{ns: map[string]int64{}, samples: map[string]int64{}, missing: map[string]bool{}}
	p, err := parseProfile(gz)
	if err != nil {
		return f, err
	}
	// Samples with equal stacks arrive merged: "samples/count" is how
	// many profiling ticks a record holds, "cpu/nanoseconds" their time.
	ci, ni := -1, -1
	for i, t := range p.sampleTypes {
		switch p.str(t[0]) + "/" + p.str(t[1]) {
		case "samples/count":
			ci = i
		case "cpu/nanoseconds":
			ni = i
		}
	}
	if ci < 0 || ni < 0 {
		return f, errors.New("profile lacks the samples/count and cpu/nanoseconds sample types")
	}
	for _, s := range p.samples {
		if ci >= len(s.values) || ni >= len(s.values) {
			return f, errors.New("profile sample is missing a value")
		}
		layer := "runtime"
	frames:
		for _, lid := range s.locs {
			for _, fid := range p.locFuncs[lid] {
				fn := p.funcs[fid]
				if l, where := frameLayer(p.str(fn[0]), p.str(fn[1])); l != "" {
					if l == unmapped {
						f.missing["internal/"+where] = true
					}
					layer = l
					break frames
				}
			}
		}
		f.ns[layer] += s.values[ni]
		f.samples[layer] += s.values[ci]
		f.total += s.values[ci]
	}
	return f, nil
}

// missingFiles lists the unmapped files a fold met, sorted.
func (f fold) missingFiles() []string {
	out := make([]string, 0, len(f.missing))
	for k := range f.missing {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// profile holds the parts of a pprof profile.proto the fold needs.
type profile struct {
	strtab      []string
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location → function ids, innermost first
	funcs       map[uint64][2]int64 // function → (name, file name) string indices
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strtab) {
		return ""
	}
	return p.strtab[i]
}

// parseProfile decodes a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto) with a minimal protobuf reader: the module takes
// no dependencies, and the fold needs five message types.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64][2]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fn [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn[0] = int64(v)
				case 4:
					fn[1] = int64(v)
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case 6: // string_table
			p.strtab = append(p.strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b); runtime/pprof writes both forms.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
