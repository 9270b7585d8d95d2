package trace

import "sync"

// tapeChunk is the number of accesses a tape generates and hands out at
// a time. A grid's streams run to a few thousand accesses each, so a
// small chunk keeps the accesses generated past a stream's last reader
// to a few dozen, while a cursor still takes the tape's lock only once
// per tapeChunk accesses.
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
	chunks []*[tapeChunk]Access
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
func (t *Tape) chunk(i int) *[tapeChunk]Access {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.chunks) <= i {
		c := new([tapeChunk]Access)
		for j := range c {
			c[j] = t.gen.Next()
		}
		t.chunks = append(t.chunks, c)
	}
	return t.chunks[i]
}

// Cursor returns a new reader positioned at the tape's first access.
func (t *Tape) Cursor() *Cursor { return &Cursor{tape: t, pos: tapeChunk} }

// Cursor replays a Tape from its start; it implements Source. A cursor
// belongs to one goroutine; only the tape is shared.
type Cursor struct {
	tape *Tape
	cur  *[tapeChunk]Access
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
	a := c.cur[c.pos]
	c.pos++
	return a
}
