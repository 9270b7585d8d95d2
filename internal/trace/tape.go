package trace

import (
	"sync"

	"ladder/internal/bits"
	"ladder/internal/recycle"
)

// tapeChunk is the number of accesses a tape generates and hands out at
// a time. A grid's streams run to a few thousand accesses each, so a
// small chunk keeps the accesses generated past a stream's last reader
// to a few dozen, while a cursor still takes the tape's lock only once
// per tapeChunk accesses. A chunk indexes its payloads with bytes, so
// tapeChunk must stay below 256.
const tapeChunk = 64

// Tape is an append-only log of one Generator's accesses, shared by
// runs that consume the same stream: each reader replays it from the
// start through its own Cursor, and the generator runs only to the
// furthest point any reader has reached. Every cursor therefore reads
// exactly the stream a fresh Generator with the tape's arguments
// produces. A Tape is safe for concurrent use by any number of cursors.
type Tape struct {
	mu     sync.Mutex
	gen    *Generator
	chunks []*tapeRecords
}

// tapeRecords is one chunk of a tape, stored compactly: a read keeps
// only its gap and line, and only writes keep their 64-byte payload.
// Reads are most of a stream, so a retained tape costs under half of
// what a log of Access values would. Next still builds each Access
// without a branch: a read's slot names the chunk's one zero line.
type tapeRecords struct {
	recs [tapeChunk]tapeRecord
	// slot[i] indexes recs[i]'s payload in data: 0, a zero line, for a
	// read, the write's own payload for a write.
	slot [tapeChunk]uint8
	data []bits.Line
}

// tapeRecord is an access without its write flag and payload.
type tapeRecord struct {
	gap  int
	line uint64
}

// NewTape returns an empty tape over the stream NewGenerator(p, seed,
// basePage) produces.
func NewTape(p Profile, seed int64, basePage uint64) (*Tape, error) {
	g, err := NewGenerator(p, seed, basePage)
	if err != nil {
		return nil, err
	}
	return &Tape{gen: g}, nil
}

// chunk returns the tape's i-th chunk, generating the log up to it
// first. A chunk never changes once appended.
func (t *Tape) chunk(i int) *tapeRecords {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.chunks) <= i {
		c := chunks.Get()
		c.slot = [tapeChunk]uint8{}
		c.data = append(c.data[:0], bits.Line{})
		for j := range c.recs {
			a := t.gen.Next()
			c.recs[j] = tapeRecord{gap: a.Gap, line: a.Line}
			if a.Write {
				c.slot[j] = uint8(len(c.data))
				c.data = append(c.data, a.Data)
			}
		}
		t.chunks = append(t.chunks, c)
	}
	return t.chunks[i]
}

// chunks keeps the chunks of recycled tapes for later tapes.
var chunks = recycle.NewPool[tapeRecords]()

// Recycle hands the tape's chunks back for later tapes to reuse. The
// caller guarantees that no cursor reads t any more; t must not be used
// again.
func (t *Tape) Recycle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.chunks {
		chunks.Put(c)
	}
	t.chunks, t.gen = nil, nil
}

// Cursor returns a new reader positioned at the tape's first access.
func (t *Tape) Cursor() *Cursor { return &Cursor{tape: t, pos: tapeChunk} }

// Cursor replays a Tape from its start; it implements Source. A cursor
// belongs to one goroutine; only the tape is shared.
type Cursor struct {
	tape *Tape
	cur  *tapeRecords
	// next is the index of the chunk after cur; pos is the position of
	// the next access within cur (tapeChunk when cur is used up).
	next, pos int
}

// Next returns the stream's next access.
func (c *Cursor) Next() Access {
	if c.pos == tapeChunk {
		c.cur = c.tape.chunk(c.next)
		c.next++
		c.pos = 0
	}
	r, slot := &c.cur.recs[c.pos], c.cur.slot[c.pos]
	c.pos++
	return Access{Gap: r.gap, Write: slot != 0, Line: r.line, Data: c.cur.data[slot]}
}
