package sim

import (
	"ladder/internal/fault"
	"ladder/internal/jsonenc"
	"ladder/internal/remap"
)

// The report documents are appended field by field in struct order,
// with the omitempty sections left out when nil, so each encodes to
// exactly json.MarshalIndent(v, "", "  "); TestReportEncoderMatchesOracle
// holds every report type to that.

// AppendJSON appends the run report.
func (r *Report) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("schema").String(r.Schema)
	e.Key("workload").String(r.Workload)
	e.Key("scheme").String(r.Scheme)
	e.Key("instructions_retired").Uint(r.InstructionsRetired)
	e.Key("ticks").Uint(r.Ticks)
	e.Key("avg_ipc").Float(r.AvgIPC)
	e.Key("wall_clock_ms").Float(r.WallClockMS)
	e.Key("data_reads").Uint(r.DataReads)
	e.Key("data_writes").Uint(r.DataWrites)
	e.Key("meta_reads").Uint(r.MetaReads)
	e.Key("meta_writes").Uint(r.MetaWrites)
	e.Key("avg_write_service_ns").Float(r.AvgWriteServiceNs)
	e.Key("avg_read_latency_ns").Float(r.AvgReadLatencyNs)
	e.Key("read_nj").Float(r.ReadNJ)
	e.Key("write_nj").Float(r.WriteNJ)
	e.Key("gap_moves").Uint(r.GapMoves)
	r.ResetLatency.appendJSON(e.Key("reset_latency"))
	r.Metrics.AppendJSON(e.Key("metrics"))
	if r.Trace != nil {
		r.Trace.AppendJSON(e.Key("trace"))
	}
	if r.Faults != nil {
		r.Faults.appendJSON(e.Key("faults"))
	}
	if r.Remap != nil {
		appendRemapJSON(e.Key("remap"), r.Remap)
	}
	if r.Timeline != nil {
		r.Timeline.AppendJSON(e.Key("timeline"))
	}
	e.Close('}')
}

func (s *ResetLatencySummary) appendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("count").Uint(s.Count)
	e.Key("mean_ns").Float(s.MeanNs)
	e.Key("p50_ns").Float(s.P50Ns)
	e.Key("p95_ns").Float(s.P95Ns)
	e.Key("p99_ns").Float(s.P99Ns)
	e.Key("max_ns").Float(s.MaxNs)
	e.Close('}')
}

// appendJSON appends the fault section; the embedded fault.Stats
// fields come first, as encoding/json promotes them.
func (f *FaultSummary) appendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	appendFaultStats(e, &f.Stats)
	f.RetryLatency.appendJSON(e.Key("retry_latency"))
	e.Close('}')
}

func appendFaultStats(e *jsonenc.Encoder, s *fault.Stats) {
	e.Key("checked").Uint(s.Checked)
	e.Key("injected").Uint(s.Injected)
	e.Key("transient").Uint(s.Transient)
	e.Key("permanent").Uint(s.Permanent)
	e.Key("retries").Uint(s.Retries)
	e.Key("exhausted").Uint(s.Exhausted)
}

func appendRemapJSON(e *jsonenc.Encoder, s *remap.Stats) {
	e.Open('{')
	e.Key("gap_moves").Uint(s.GapMoves)
	e.Key("spare_remaps").Uint(s.SpareRemaps)
	e.Key("spares_used").Uint(s.SparesUsed)
	e.Key("decoder_lookups").Uint(s.Lookups)
	e.Key("penalty_ticks").Uint(s.PenaltyTicks)
	e.Close('}')
}

// AppendJSON appends the bench document.
func (b *BenchReport) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("schema").String(b.Schema)
	e.Key("name").String(b.Name)
	e.Key("workload").String(b.Workload)
	e.Key("scheme").String(b.Scheme)
	jsonenc.Map(e.Key("metrics"), nil, b.Metrics, jsonenc.FloatValue)
	if p := b.Provenance; p != nil {
		e.Key("provenance").Open('{')
		e.Key("go_version").String(p.GoVersion)
		e.Key("gomaxprocs").Int(int64(p.GOMAXPROCS))
		if p.Label != "" {
			e.Key("label").String(p.Label)
		}
		e.Close('}')
	}
	e.Close('}')
}

// AppendJSON appends the grid report.
func (g *GridReport) AppendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("schema").String(g.Schema)
	e.Key("workloads").Strings(g.Workloads)
	e.Key("schemes").Strings(g.Schemes)
	e.Key("cells")
	if g.Cells == nil {
		e.Null()
	} else {
		e.Open('[')
		for i := range g.Cells {
			g.Cells[i].appendJSON(e.Elem())
		}
		e.Close(']')
	}
	g.Metrics.AppendJSON(e.Key("metrics"))
	if g.Timeline != nil {
		g.Timeline.AppendJSON(e.Key("timeline"))
	}
	e.Close('}')
}

func (c *GridCell) appendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("workload").String(c.Workload)
	e.Key("scheme").String(c.Scheme)
	e.Key("avg_ipc").Float(c.AvgIPC)
	e.Key("instructions_retired").Uint(c.InstructionsRetired)
	e.Key("wall_clock_ms").Float(c.WallClockMS)
	e.Key("avg_write_service_ns").Float(c.AvgWriteServiceNs)
	e.Key("avg_read_latency_ns").Float(c.AvgReadLatencyNs)
	c.ResetLatency.appendJSON(e.Key("reset_latency"))
	e.Close('}')
}
