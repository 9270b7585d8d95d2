package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ladder/internal/jsonenc"
)

// csvHeader is the exported column set: the headline per-epoch series.
// Map-valued fields (counters, quantiles) and the per-channel queue
// samples stay JSON-only; CSV is the flat form spreadsheets and
// plotting scripts ingest directly.
var csvHeader = []string{
	"epoch", "start_cycle", "end_cycle", "instructions", "ipc",
	"store_writes", "retries", "gap_moves", "spare_remaps",
	"read_nj", "write_nj",
}

// WriteJSON emits the timeline as indented JSON (schema
// "ladder.timeline/v1").
func (t *Timeline) WriteJSON(w io.Writer) error {
	return jsonenc.Write(w, t.AppendJSON)
}

// AppendJSON appends the timeline as the object encoding/json makes of
// it (null for a nil timeline): fields in struct order, an epoch's
// empty queue, counter and quantile members omitted, map members in
// sorted name order.
func (t *Timeline) AppendJSON(e *jsonenc.Encoder) {
	if t == nil {
		e.Null()
		return
	}
	e.Open('{')
	e.Key("schema").String(t.Schema)
	e.Key("interval_cycles").Uint(t.Interval)
	e.Key("effective_interval_cycles").Uint(t.EffectiveInterval)
	e.Key("epochs")
	if t.Epochs == nil {
		e.Null()
	} else {
		// One scratch slice serves every epoch's sorted names.
		most := 0
		for i := range t.Epochs {
			most = max(most, len(t.Epochs[i].Counters), len(t.Epochs[i].Quantiles))
		}
		names := make([]string, 0, most)
		e.Open('[')
		for i := range t.Epochs {
			names = t.Epochs[i].appendJSON(e.Elem(), names)
		}
		e.Close(']')
	}
	e.Close('}')
}

// appendJSON appends one epoch, sorting its map members in names, and
// returns names for the next epoch.
func (ep *Epoch) appendJSON(e *jsonenc.Encoder, names []string) []string {
	e.Open('{')
	e.Key("start_cycle").Uint(ep.Start)
	e.Key("end_cycle").Uint(ep.End)
	e.Key("instructions").Uint(ep.Instructions)
	e.Key("ipc").Float(ep.IPC)
	e.Key("store_writes").Uint(ep.StoreWrites)
	e.Key("retries").Uint(ep.Retries)
	e.Key("gap_moves").Uint(ep.GapMoves)
	e.Key("spare_remaps").Uint(ep.SpareRemaps)
	e.Key("read_nj").Float(ep.ReadNJ)
	e.Key("write_nj").Float(ep.WriteNJ)
	if len(ep.ReadQueue) > 0 {
		e.Key("read_queue").Ints(ep.ReadQueue)
	}
	if len(ep.WriteQueue) > 0 {
		e.Key("write_queue").Ints(ep.WriteQueue)
	}
	if len(ep.Counters) > 0 {
		names = jsonenc.Map(e.Key("counters"), names, ep.Counters, jsonenc.UintValue)
	}
	if len(ep.Quantiles) > 0 {
		names = jsonenc.Map(e.Key("quantiles"), names, ep.Quantiles, HistStat.appendJSON)
	}
	e.Close('}')
	return names
}

// appendJSON appends one histogram's epoch summary in field order.
func (h HistStat) appendJSON(e *jsonenc.Encoder) {
	e.Open('{')
	e.Key("count").Uint(h.Count)
	e.Key("p50").Float(h.P50)
	e.Key("p99").Float(h.P99)
	e.Close('}')
}

// WriteCSV emits the headline epoch series as CSV, one row per epoch.
func (t *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("timeline: writing CSV: %w", err)
	}
	for i, e := range t.Epochs {
		row := []string{
			strconv.Itoa(i),
			strconv.FormatUint(e.Start, 10),
			strconv.FormatUint(e.End, 10),
			strconv.FormatUint(e.Instructions, 10),
			strconv.FormatFloat(e.IPC, 'g', -1, 64),
			strconv.FormatUint(e.StoreWrites, 10),
			strconv.FormatUint(e.Retries, 10),
			strconv.FormatUint(e.GapMoves, 10),
			strconv.FormatUint(e.SpareRemaps, 10),
			strconv.FormatFloat(e.ReadNJ, 'g', -1, 64),
			strconv.FormatFloat(e.WriteNJ, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("timeline: writing CSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
