package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one cell or job share a group ID; parent is the
// index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	group      int64
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
}

// layer is the span name's prefix before the first dot: the package the
// span's call went into ("timing.generate_wl" → "timing").
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the workload code paths
// are identical with tracing on and off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name string, group int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, group: group, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes the span opened by begin.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[h].end = now
	r.mu.Unlock()
}

// add records an already-measured span, for calls timed by the layer
// itself (a grid cell's wall clock reported by sim).
func (r *recorder) add(name string, group int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, group: group, parent: parent,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children running in parallel
// (a grid's two workers) may overlap; the union is what is subtracted,
// clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		var curLo, curHi time.Duration = 0, -1
		for _, iv := range ivs {
			if iv[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// spanRow is one line of the self-time table.
type spanRow struct {
	name   string
	count  int
	total  time.Duration
	self   time.Duration
	median time.Duration
}

// selfTable aggregates spans by name, heaviest self time first.
func selfTable(spans []span) []spanRow {
	self := selfTimes(spans)
	byName := map[string]*spanRow{}
	durs := map[string][]float64{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed: the call did not return
		}
		row := byName[s.name]
		if row == nil {
			row = &spanRow{name: s.name}
			byName[s.name] = row
		}
		row.count++
		row.total += s.end - s.start
		row.self += self[i]
		durs[s.name] = append(durs[s.name], float64(s.end-s.start))
	}
	rows := make([]spanRow, 0, len(byName))
	for name, row := range byName {
		row.median = time.Duration(median(durs[name]))
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].self != rows[b].self {
			return rows[a].self > rows[b].self
		}
		return rows[a].name < rows[b].name
	})
	return rows
}

// writeSelfTable prints the "where a run's time goes" table: host time
// by span, self time first, with each row's share of all self time.
// Self times of parallel workers add, so the total is host-thread time,
// not wall clock.
func writeSelfTable(w io.Writer, workload string, spans []span) {
	rows := selfTable(spans)
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "# where a run's time goes: %s (traced run, host time by span; self = span minus its children)\n", workload)
	fmt.Fprintf(w, "# %-26s %8s %12s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "median_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-26s %8d %12.1f %12.1f %12.3f %6.1f%%\n", r.name, r.count,
			ms(r.total), ms(r.self), ms(r.median), 100*ratio(float64(r.self), float64(all)))
	}
	byLayer := map[string]time.Duration{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.end >= s.start {
			byLayer[s.layer()] += self[i]
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	fmt.Fprintf(w, "# self time by layer:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.1fms(%.1f%%)", l, ms(byLayer[l]), 100*ratio(float64(byLayer[l]), float64(all)))
	}
	fmt.Fprintln(w)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeSpans writes every span as one JSON line to path: its name, the
// ID shared by the spans of one cell or job, its parent's index (-1 for
// a root) and its interval in microseconds from the run's start.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name    string  `json:"name"`
			Group   int64   `json:"group"`
			Parent  int     `json:"parent"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{s.name, s.group, s.parent, float64(s.start) / 1e3, float64(s.end) / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
