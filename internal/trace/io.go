package trace

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// Source produces an access stream; Generator and Replayer implement it.
type Source interface {
	Next() Access
}

// traceHeader identifies trace files and records provenance.
type traceHeader struct {
	Magic    string
	Version  int
	Workload string
	Seed     int64
	Count    uint64
}

const traceMagic = "ladder-trace"

// Writer streams accesses to a trace file.
type Writer struct {
	enc   *gob.Encoder
	count uint64
}

// NewWriter starts a trace stream on w with provenance metadata. The
// header's count is informational only (0 when unknown); readers rely on
// the stream end.
func NewWriter(w io.Writer, workload string, seed int64, count uint64) (*Writer, error) {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(traceHeader{Magic: traceMagic, Version: 1, Workload: workload, Seed: seed, Count: count}); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{enc: enc}, nil
}

// Append writes one access.
func (w *Writer) Append(a Access) error {
	if err := w.enc.Encode(a); err != nil {
		return fmt.Errorf("trace: writing access %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Record captures n accesses from a source into w.
func Record(w io.Writer, src Source, workload string, seed int64, n uint64) error {
	tw, err := NewWriter(w, workload, seed, n)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := tw.Append(src.Next()); err != nil {
			return err
		}
	}
	return nil
}

// Replayer replays a loaded trace, looping when it reaches the end so it
// can feed arbitrarily long simulations.
type Replayer struct {
	// Workload and Seed echo the recorded provenance.
	Workload string
	Seed     int64
	accesses []Access
	pos      int
}

// Next implements Source.
func (r *Replayer) Next() Access {
	a := r.accesses[r.pos]
	r.pos++
	if r.pos >= len(r.accesses) {
		r.pos = 0
	}
	return a
}

// Len returns the number of recorded accesses.
func (r *Replayer) Len() int { return len(r.accesses) }

// MaxLine returns the largest line address in the trace, letting callers
// validate the trace against a memory geometry before replaying.
func (r *Replayer) MaxLine() uint64 {
	var m uint64
	for _, a := range r.accesses {
		if a.Line > m {
			m = a.Line
		}
	}
	return m
}

// Load reads a whole trace stream into a Replayer.
func Load(rd io.Reader) (*Replayer, error) {
	dec := gob.NewDecoder(rd)
	var h traceHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h.Magic != traceMagic {
		return nil, errors.New("trace: not a ladder trace file")
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", h.Version)
	}
	rep := &Replayer{Workload: h.Workload, Seed: h.Seed}
	for {
		var a Access
		if err := dec.Decode(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("trace: reading access %d: %w", len(rep.accesses), err)
		}
		rep.accesses = append(rep.accesses, a)
	}
	if len(rep.accesses) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return rep, nil
}

// LoadFile loads a trace file from disk.
func LoadFile(path string) (*Replayer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
