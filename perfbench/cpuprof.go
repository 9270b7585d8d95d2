package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuLayers are the packages the CPU profile table reports, in a fixed
// order so every traced run prints the same metric names. Samples whose
// stack holds none of them are "runtime" (garbage collection and the
// scheduler) or "other" (the standard library called from outside).
var cpuLayers = []string{
	"engine", "cpu", "memctrl", "core", "reram", "trace", "bits", "energy", "wear", "sim",
	"fault", "remap", "timeline", "tracing", "metrics", "service", "timing",
	"bench", "runtime", "other",
}

// layerOfFunc maps a profiled function name to its repository package:
// "ladder/internal/memctrl.(*Controller).Tick" → "memctrl",
// "ladder/perfbench.doJob" → "bench", anything else → "".
func layerOfFunc(name string) string {
	if rest, ok := strings.CutPrefix(name, "ladder/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(name, "ladder/perfbench.") || strings.HasPrefix(name, "main.") {
		return "bench"
	}
	return ""
}

// cpuByLayer parses a runtime/pprof CPU profile and returns its sampled
// CPU time per layer. Each sample is charged to the innermost frame of
// the stack that belongs to a repository package, so the standard
// library and allocation work a layer calls into count as that layer's.
// Stacks with no repository frame go to "runtime" when their leaf is in
// the runtime and to "other" otherwise. The standard library writes the
// profile format but has no reader, and the module takes no
// dependencies, so the few protobuf fields needed are decoded here.
func cpuByLayer(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		valueSets [][]int64
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, locs)
			valueSets = append(valueSets, vals)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for i, locs := range samples {
		vals := valueSets[i]
		if len(vals) == 0 {
			continue
		}
		v := float64(vals[len(vals)-1]) // cpu nanoseconds (the last sample type)
		layer, leaf := "", ""
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				n := name(fn)
				if leaf == "" {
					leaf = n
				}
				if l := layerOfFunc(n); l != "" {
					layer = l
					break stack
				}
			}
		}
		if layer == "" {
			layer = "other"
			if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime") {
				layer = "runtime"
			}
		}
		out[layer] += v
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped; the profile format uses none that the
// parser reads.
func eachField(b []byte, f func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := f(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
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

// writeCPUTable prints CPU time by layer and publishes each layer's share
// as cpu.<layer>_pct.
func writeCPUTable(w io.Writer, b *bench, sampled map[string]float64) {
	byLayer := map[string]float64{}
	for _, l := range cpuLayers {
		byLayer[l] = 0
	}
	var total float64
	for l, v := range sampled {
		total += v
		if _, known := byLayer[l]; !known { // packages outside the list (chaos, compress, ...)
			l = "other"
		}
		byLayer[l] += v
	}
	names := append([]string(nil), cpuLayers...)
	sort.SliceStable(names, func(i, j int) bool { return byLayer[names[i]] > byLayer[names[j]] })
	fmt.Fprintf(w, "# CPU time by layer during the recorded chunk (pprof samples, %.2f CPU-s; charged to the innermost repository frame)\n", total/1e9)
	for _, l := range names {
		share := 100 * ratio(byLayer[l], total)
		b.set("cpu."+l+"_pct", share, "%")
		if byLayer[l] > 0 {
			fmt.Fprintf(w, "#   %-10s %9.1f ms %6.1f%%\n", l, byLayer[l]/1e6, share)
		}
	}
}
