package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"ladder/internal/jsonenc"
)

// PromLabel is one name="value" label pair attached to exported samples.
type PromLabel struct {
	Name  string
	Value string
}

// PromSample is one extra sample to export alongside a snapshot —
// process-level series (active jobs, uptime) that live outside any
// registry. Type must be "counter" or "gauge"; counter names get the
// "_total" suffix appended like registry counters do.
type PromSample struct {
	Name   string
	Type   string
	Help   string
	Value  float64
	Labels []PromLabel
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4), the form /metrics/prom serves:
//
//   - counters export as "ladder_<name>_total" (dots become underscores),
//   - gauges export their last observation as "ladder_<name>",
//   - histograms export cumulative "_bucket{le=...}" series ending in
//     le="+Inf", plus "_sum" and "_count",
//   - grids (2-D bucket matrices, up to 512×512 cells) export as a
//     single "ladder_<name>_total" holding the cell sum — cell-wise
//     export would be a cardinality explosion no scraper wants.
//
// The shared labels attach to every sample (run identity, job ID), and
// extras append after the snapshot's instruments. Output is sorted by
// metric name, so identical inputs render byte-identically. The result
// passes promcheck.Lint; a test pins that.
func WritePrometheus(w io.Writer, s Snapshot, labels []PromLabel, extra ...PromSample) error {
	lab := appendLabels(make([]byte, 0, 128), labels, nil)
	// leOpen opens a bucket sample's label set up to its le value.
	leOpen := []byte(`{le="`)
	if len(lab) > 0 {
		leOpen = append(append(lab[:len(lab)-1:len(lab)-1], ','), `le="`...)
	}

	// Size the buffer for the lines ahead (names run to about 40 bytes),
	// so the text is usually appended without growing it.
	lines := 2 * (len(s.Counters) + len(s.Gauges) + len(s.Grids))
	for _, h := range s.Histograms {
		lines += len(h.Bounds) + 4
	}
	b := make([]byte, 0, lines*(96+len(leOpen)))
	names := make([]string, 0, max(len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Grids)))
	m := make([]byte, 0, 128) // the current family's Prometheus name

	names = jsonenc.SortedKeys(names, s.Counters)
	for _, n := range names {
		m = append(appendPromName(m[:0], n), "_total"...)
		b = appendSample(appendType(b, m, "counter"), m, "", lab, float64(s.Counters[n]))
	}

	names = jsonenc.SortedKeys(names, s.Gauges)
	for _, n := range names {
		m = appendPromName(m[:0], n)
		b = appendSample(appendType(b, m, "gauge"), m, "", lab, s.Gauges[n].Last)
	}

	names = jsonenc.SortedKeys(names, s.Histograms)
	for _, n := range names {
		h := s.Histograms[n]
		m = appendPromName(m[:0], n)
		b = appendType(b, m, "histogram")
		var cum uint64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			b = appendBucket(b, m, leOpen, bound, cum)
		}
		b = appendBucket(b, m, leOpen, math.Inf(1), h.Count) // le="+Inf"
		b = appendSample(b, m, "_sum", lab, h.Sum)
		b = append(append(append(b, m...), "_count"...), lab...)
		b = append(strconv.AppendUint(append(b, ' '), h.Count, 10), '\n')
	}

	names = jsonenc.SortedKeys(names, s.Grids)
	for _, n := range names {
		var total uint64
		for _, row := range s.Grids[n].Counts {
			for _, c := range row {
				total += c
			}
		}
		m = append(appendPromName(m[:0], n), "_total"...)
		b = appendSample(appendType(b, m, "counter"), m, "", lab, float64(total))
	}

	// Extras may repeat a name with different labels (one series per
	// job); the family is declared once, on first occurrence.
	declared := map[string]string{}
	for _, x := range extra {
		if x.Type != "counter" && x.Type != "gauge" {
			return fmt.Errorf("metrics: extra sample %q has type %q (want counter or gauge)", x.Name, x.Type)
		}
		m = appendPromName(m[:0], x.Name)
		if x.Type == "counter" {
			m = append(m, "_total"...)
		}
		if prev, ok := declared[string(m)]; ok {
			if prev != x.Type {
				return fmt.Errorf("metrics: extra sample %q redeclared as %s (was %s)", x.Name, x.Type, prev)
			}
		} else {
			if x.Help != "" {
				b = append(append(append(b, "# HELP "...), m...), ' ')
				b = append(appendPromEscaped(b, x.Help, false), '\n')
			}
			b = appendType(b, m, x.Type)
			declared[string(m)] = x.Type
		}
		b = appendSample(b, m, "", appendLabels(nil, labels, x.Labels), x.Value)
	}

	_, err := w.Write(b)
	return err
}

// appendType appends a family's "# TYPE" line.
func appendType(b, m []byte, typ string) []byte {
	b = append(append(append(b, "# TYPE "...), m...), ' ')
	return append(append(b, typ...), '\n')
}

// appendSample appends one sample line: family name and suffix, label
// set, and the value in the shortest round-trippable form.
func appendSample(b, m []byte, suffix string, lab []byte, v float64) []byte {
	b = append(append(append(append(b, m...), suffix...), lab...), ' ')
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendBucket appends one cumulative bucket sample.
func appendBucket(b, m, leOpen []byte, le float64, cum uint64) []byte {
	b = strconv.AppendFloat(append(append(append(b, m...), "_bucket"...), leOpen...), le, 'g', -1, 64)
	return append(strconv.AppendUint(append(b, `"} `...), cum, 10), '\n')
}

// appendPromName maps a registry instrument name onto the Prometheus
// namespace: "ladder_" prefix, dots and any other character outside
// [a-zA-Z0-9_] become underscores.
func appendPromName(b []byte, name string) []byte {
	b = append(b, "ladder_"...)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// appendLabels appends the label set of labels followed by more as
// {a="b",c="d"}, or nothing for no labels.
func appendLabels(b []byte, labels, more []PromLabel) []byte {
	if len(labels)+len(more) == 0 {
		return b
	}
	b = append(b, '{')
	for _, set := range [...][]PromLabel{labels, more} {
		for _, l := range set {
			if b[len(b)-1] != '{' {
				b = append(b, ',')
			}
			b = appendPromLabelName(b, l.Name)
			b = append(appendPromEscaped(append(b, `="`...), l.Value, true), '"')
		}
	}
	return append(b, '}')
}

// appendPromLabelName sanitizes a label name to [a-zA-Z_][a-zA-Z0-9_]*.
func appendPromLabelName(b []byte, name string) []byte {
	if name == "" {
		return append(b, '_')
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b = append(b, byte(r))
		case r >= '0' && r <= '9' && i > 0:
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// appendPromEscaped escapes a label value per the exposition format
// (backslash, double quote and newline), or a HELP text when quote is
// false (quotes are legal there).
func appendPromEscaped(b []byte, v string, quote bool) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}
