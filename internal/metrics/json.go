package metrics

import "ladder/internal/jsonenc"

// AppendJSON appends the snapshot as the object encoding/json makes of
// it: the four instrument maps in field order, each member in sorted
// name order, sorted once per encode.
func (s Snapshot) AppendJSON(e *jsonenc.Encoder) {
	names := make([]string, 0, max(len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Grids)))
	e.Open('{')
	names = jsonenc.Map(e.Key("counters"), names, s.Counters, jsonenc.UintValue)
	names = jsonenc.Map(e.Key("gauges"), names, s.Gauges, GaugeSnapshot.AppendJSON)
	names = jsonenc.Map(e.Key("histograms"), names, s.Histograms, HistogramSnapshot.AppendJSON)
	jsonenc.Map(e.Key("grids"), names, s.Grids, GridSnapshot.AppendJSON)
	e.Close('}')
}

// AppendJSON appends the gauge's sample moments in field order.
func (g GaugeSnapshot) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("last").Float(g.Last)
	e.Key("min").Float(g.Min)
	e.Key("max").Float(g.Max)
	e.Key("mean").Float(g.Mean)
	e.Key("samples").Uint(g.Samples)
	e.Close('}')
}

// AppendJSON appends the histogram's buckets and summary in field
// order.
func (h HistogramSnapshot) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("bounds").Floats(h.Bounds)
	e.Key("counts").Uints(h.Counts)
	e.Key("count").Uint(h.Count)
	e.Key("sum").Float(h.Sum)
	e.Key("min").Float(h.Min)
	e.Key("max").Float(h.Max)
	e.Key("mean").Float(h.Mean)
	e.Key("p50").Float(h.P50)
	e.Key("p95").Float(h.P95)
	e.Key("p99").Float(h.P99)
	e.Close('}')
}

// AppendJSON appends the grid's shape and counts in field order.
func (g GridSnapshot) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("rows").Int(int64(g.Rows))
	e.Key("cols").Int(int64(g.Cols))
	e.Key("counts")
	if g.Counts == nil {
		e.Null()
	} else {
		e.Open('[')
		for _, row := range g.Counts {
			e.Elem().Uints(row)
		}
		e.Close(']')
	}
	e.Close('}')
}
