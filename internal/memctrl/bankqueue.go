package memctrl

// bankQueue is one of the controller's queues (the RDQ or the WRQ),
// bounded at a fixed number of entries and kept as one FIFO per bank.
// The entries live in a fixed pool, each linked to the next entry of its
// bank, so an enqueue never allocates and an entry can leave from any
// position of its bank's FIFO. Each entry carries its arrival number:
// merging the banks' FIFOs by arrival number gives the order of one
// arrival-ordered queue.
type bankQueue[T any] struct {
	entries    []queued[T]
	head, tail []int32 // per bank; none when the bank's FIFO is empty
	free       int32   // first unused entry, linked through next
	len        int
	arrivals   uint64
	// banks has bit b set while bank b has queued entries.
	banks uint64
}

type queued[T any] struct {
	seq  uint64 // arrival number
	v    T
	next int32
}

// none ends a FIFO and the free list.
const none = -1

func newBankQueue[T any](bound, banks int) bankQueue[T] {
	q := bankQueue[T]{
		entries: make([]queued[T], bound),
		head:    make([]int32, banks),
		tail:    make([]int32, banks),
	}
	for b := range banks {
		q.head[b], q.tail[b] = none, none
	}
	for i := range q.entries {
		q.entries[i].next = int32(i + 1)
	}
	q.entries[bound-1].next = none
	return q
}

// push appends v to bank b's FIFO. The caller keeps len below the bound.
func (q *bankQueue[T]) push(b int, v T) {
	i := q.free
	e := &q.entries[i]
	q.free = e.next
	q.arrivals++
	e.seq, e.v, e.next = q.arrivals, v, none
	if t := q.tail[b]; t == none {
		q.head[b] = i
	} else {
		q.entries[t].next = i
	}
	q.tail[b] = i
	q.banks |= 1 << b
	q.len++
}

// remove unlinks entry i from bank b's FIFO, in which prev precedes it
// (none when i is the head), and returns its value.
func (q *bankQueue[T]) remove(b int, prev, i int32) T {
	e := &q.entries[i]
	if prev == none {
		q.head[b] = e.next
	} else {
		q.entries[prev].next = e.next
	}
	if q.tail[b] == i {
		q.tail[b] = prev
	}
	if q.head[b] == none {
		q.banks &^= 1 << b
	}
	v := e.v
	var zero T
	e.v, e.next = zero, q.free
	q.free = i
	q.len--
	return v
}
