package timeline

import (
	"encoding/csv"
	"encoding/json"
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

// ReadJSON parses a timeline written by WriteJSON, rejecting unknown
// schemas.
func ReadJSON(r io.Reader) (*Timeline, error) {
	var t Timeline
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("timeline: decoding JSON: %w", err)
	}
	if t.Schema != Schema {
		return nil, fmt.Errorf("timeline: unknown schema %q (want %q)", t.Schema, Schema)
	}
	return &t, nil
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

// ReadCSV parses a timeline written by WriteCSV. Only the headline
// fields round-trip (the CSV form carries neither the counter maps nor
// the interval metadata); re-exporting a ReadCSV result through
// WriteCSV is byte-identical to the original.
func ReadCSV(r io.Reader) (*Timeline, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("timeline: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("timeline: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) {
		return nil, fmt.Errorf("timeline: CSV header has %d columns, want %d", len(rows[0]), len(csvHeader))
	}
	for i, want := range csvHeader {
		if rows[0][i] != want {
			return nil, fmt.Errorf("timeline: CSV column %d is %q, want %q", i, rows[0][i], want)
		}
	}
	t := &Timeline{Schema: Schema}
	for n, row := range rows[1:] {
		var e Epoch
		fields := []struct {
			col int
			u   *uint64
			f   *float64
		}{
			{col: 1, u: &e.Start}, {col: 2, u: &e.End},
			{col: 3, u: &e.Instructions}, {col: 4, f: &e.IPC},
			{col: 5, u: &e.StoreWrites}, {col: 6, u: &e.Retries},
			{col: 7, u: &e.GapMoves}, {col: 8, u: &e.SpareRemaps},
			{col: 9, f: &e.ReadNJ}, {col: 10, f: &e.WriteNJ},
		}
		for _, fd := range fields {
			if fd.u != nil {
				*fd.u, err = strconv.ParseUint(row[fd.col], 10, 64)
			} else {
				*fd.f, err = strconv.ParseFloat(row[fd.col], 64)
			}
			if err != nil {
				return nil, fmt.Errorf("timeline: CSV row %d column %q: %w", n+1, csvHeader[fd.col], err)
			}
		}
		t.Epochs = append(t.Epochs, e)
	}
	return t, nil
}
