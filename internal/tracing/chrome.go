package tracing

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"ladder/internal/jsonenc"
)

// ticksPerUs converts engine cycles to the microseconds Chrome trace
// timestamps use: the simulation clock runs at 4 GHz (4 ticks per
// nanosecond, memctrl.TicksPerNs), so one microsecond is 4000 ticks.
const ticksPerUs = 4000

// corePID offsets core tracks away from channel tracks in the trace's
// process-ID space (channels are pid 0..N, cores pid 1000+i).
const corePID = 1000

// chromeChunk is how many buffered bytes the Chrome export collects
// before handing them to the writer.
const chromeChunk = 32 << 10

// track maps a span onto its (pid, tid) track: one process per channel
// with one thread per bank, and one process per core for stall spans.
func (s *Span) track() (pid, tid int) {
	if s.Kind == KindCoreStall {
		return corePID + int(s.Core), 0
	}
	return int(s.Channel), int(s.Bank)
}

// priced reports whether a span's service slice carries the write's
// pricing args (lat_ns, the three buckets and drain): data and metadata
// writes, and the verify retries the controller stamps with the
// escalated pulse and its timing-table cell.
func (s *Span) priced() bool { return s.IsWrite() || s.Kind == KindWriteRetry }

// trackKey is one (pid, tid) track of the Chrome trace.
type trackKey struct{ pid, tid int }

func compareTracks(a, b trackKey) int {
	return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid))
}

// WriteChromeTrace exports every completed resident span as Chrome
// trace-event JSON. Each memory transaction renders as up to two
// complete slices on its channel/bank track — "queued" covering queue
// wait and the kind label covering dispatch to completion, carrying the
// resolved timing-table cell, programmed latency and drain flag as args
// — and each stall episode as one slice on its core track. Open spans
// are skipped: an export mid-run shows only finished work.
//
// The document is appended into one buffer that is written out in
// chunks, with no per-event allocation, and it is exactly what encoding/json would make of the
// same events: the field order name, ph, cat, pid, tid, ts, dur, args;
// cat and a zero dur omitted; args keys sorted; floats in
// encoding/json's format; one trailing newline. A write latency that
// JSON cannot represent (NaN or ±Inf) fails the export before anything
// is written; otherwise the first write error is returned.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	e := chromeEncoder{w: w, buf: make([]byte, 0, chromeChunk+512)}
	e.buf = append(e.buf, `{"traceEvents":[`...)
	if c != nil {
		tracks, err := c.chromeTracks()
		if err != nil {
			return err
		}
		e.metadata(tracks)
		c.eachDone(e.span)
	}
	e.buf = append(e.buf, "],\"displayTimeUnit\":\"ns\"}\n"...)
	e.flush()
	return e.err
}

// chromeTracks returns the tracks of the resident completed spans in
// (pid, tid) order, or an error for a write latency JSON cannot encode.
func (c *Collector) chromeTracks() ([]trackKey, error) {
	var tracks []trackKey
	var err error
	c.eachDone(func(s *Span) {
		if err == nil && s.priced() && (math.IsNaN(s.LatNs) || math.IsInf(s.LatNs, 0)) {
			err = fmt.Errorf("tracing: span %d: lat_ns %v has no JSON encoding", s.ID, s.LatNs)
		}
		pid, tid := s.track()
		k := trackKey{pid, tid}
		if i, found := slices.BinarySearchFunc(tracks, k, compareTracks); !found {
			tracks = slices.Insert(tracks, i, k)
		}
	})
	return tracks, err
}

// chromeEncoder appends trace events to one buffer and hands it to the
// writer whenever it passes chromeChunk bytes. After the first write
// error it writes nothing more and keeps that error.
type chromeEncoder struct {
	w      io.Writer
	buf    []byte
	events int
	err    error
}

func (e *chromeEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// begin opens one event, up to and including its args object's opening
// brace; ts and dur are in ticks. Names, phases and categories are
// fixed ASCII labels that JSON needs no escapes for.
func (e *chromeEncoder) begin(name, ph, cat string, pid, tid int, ts, dur uint64) {
	b := e.buf
	if e.events > 0 {
		b = append(b, ',')
	}
	e.events++
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, '"')
	if cat != "" {
		b = append(b, `,"cat":"`...)
		b = append(b, cat...)
		b = append(b, '"')
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendTicksUs(b, ts)
	if dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendTicksUs(b, dur)
	}
	e.buf = append(b, `,"args":{`...)
}

// end closes the args object and the event, and writes out a full
// chunk.
func (e *chromeEncoder) end() {
	e.buf = append(e.buf, "}}"...)
	if len(e.buf) >= chromeChunk {
		e.flush()
	}
}

// metadata names the tracks so Perfetto shows "channel 0 / bank 3"
// instead of bare pids: a process_name event for each pid, then a
// thread_name event for each track. Viewers ignore their order; it
// follows the sorted tracks so exports are byte-stable.
func (e *chromeEncoder) metadata(tracks []trackKey) {
	for i, k := range tracks {
		if i == 0 || tracks[i-1].pid != k.pid {
			e.begin("process_name", "M", "", k.pid, 0, 0, 0)
			if k.pid >= corePID {
				e.buf = append(e.buf, `"name":"core `...)
				e.buf = strconv.AppendInt(e.buf, int64(k.pid-corePID), 10)
			} else {
				e.buf = append(e.buf, `"name":"channel `...)
				e.buf = strconv.AppendInt(e.buf, int64(k.pid), 10)
			}
			e.buf = append(e.buf, '"')
			e.end()
		}
		e.begin("thread_name", "M", "", k.pid, k.tid, 0, 0)
		if k.pid >= corePID {
			e.buf = append(e.buf, `"name":"stalls"`...)
		} else {
			e.buf = append(e.buf, `"name":"bank `...)
			e.buf = strconv.AppendInt(e.buf, int64(k.tid), 10)
			e.buf = append(e.buf, '"')
		}
		e.end()
	}
}

// span appends one completed span's slices. Args keys go in
// encoding/json's sorted order.
func (e *chromeEncoder) span(s *Span) {
	if e.err != nil {
		return
	}
	pid, tid := s.track()
	if q := s.QueueTicks(); q > 0 && s.Kind != KindCoreStall {
		e.begin("queued", "X", "queue", pid, tid, s.Enqueue, q)
		e.buf = appendLineSpan(e.buf, s)
		e.end()
	}
	e.begin(s.Kind.String(), "X", "service", pid, tid, s.Dispatch, s.ServiceTicks())
	b := e.buf
	if s.priced() {
		b = append(b, `"bl_bucket":`...)
		b = strconv.AppendInt(b, int64(s.BLBucket), 10)
		b = append(b, `,"clrs_bucket":`...)
		b = strconv.AppendInt(b, int64(s.ClrsBucket), 10)
		b = append(b, `,"drain":`...)
		b = strconv.AppendBool(b, s.Drain)
		b = append(b, `,"lat_ns":`...)
		b = jsonenc.AppendFloat(b, s.LatNs)
		b = appendLineSpan(append(b, ','), s)
		b = append(b, `,"wl_bucket":`...)
		b = strconv.AppendInt(b, int64(s.WLBucket), 10)
	} else {
		b = appendLineSpan(b, s)
	}
	e.buf = b
	e.end()
}

// appendLineSpan appends the line and span args every slice carries.
func appendLineSpan(b []byte, s *Span) []byte {
	b = append(b, `"line":`...)
	b = strconv.AppendUint(b, s.Line, 10)
	b = append(b, `,"span":`...)
	return strconv.AppendUint(b, s.ID, 10)
}

// appendTicksUs appends ticks converted to microseconds, exactly as
// jsonenc.AppendFloat(b, float64(ticks)/ticksPerUs) would. Below 4e13 ticks
// the quotient is a decimal of at most 15 significant digits (10 before
// the point, 5 after). float64 keeps every such decimal apart, so it is
// the shortest decimal that rounds to the float64 quotient, which is
// what strconv prints; it is written here from integer arithmetic.
func appendTicksUs(b []byte, ticks uint64) []byte {
	if ticks >= 4e13 {
		return jsonenc.AppendFloat(b, float64(ticks)/ticksPerUs)
	}
	b = strconv.AppendUint(b, ticks/ticksPerUs, 10)
	frac := ticks % ticksPerUs * 25 // hundred-thousandths of a microsecond
	if frac == 0 {
		return b
	}
	d := [6]byte{'.'}
	for i := 5; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(d)
	for d[n-1] == '0' {
		n--
	}
	return append(b, d[:n]...)
}

// WriteSlowestDigest renders the slowest traced writes for humans: the
// "why was this write slow" answer — queue wait vs pulse split, the
// timing-table cell that priced it, and whether it dispatched during a
// write drain.
func (c *Collector) WriteSlowestDigest(w io.Writer) error {
	slow := c.Slowest()
	if _, err := fmt.Fprintf(w, "slowest traced writes (%d of %d sampled, 1-in-%d sampling)\n",
		len(slow), c.Sampled(), max(c.SampleEvery(), 1)); err != nil {
		return err
	}
	for i, s := range slow {
		drain := ""
		if s.Drain {
			drain = " drain"
		}
		kind := ""
		if s.Kind == KindMetaWrite {
			kind = " [meta]"
		}
		if _, err := fmt.Fprintf(w,
			"  #%-2d line %#x ch%d bank%d: %d ticks total (queue %d, service %d = %.1f ns pulse) cell %s%s%s enq@%d\n",
			i+1, s.Line, s.Channel, s.Bank,
			s.TotalTicks(), s.QueueTicks(), s.ServiceTicks(), s.LatNs,
			s.cell(), drain, kind, s.Enqueue); err != nil {
			return err
		}
	}
	return nil
}
