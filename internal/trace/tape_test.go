package trace

import (
	"slices"
	"sync"
	"testing"
)

// tapeReaders are the stream lengths the tape tests' cursors read: none
// a multiple of tapeChunk, so reads stop inside chunks and resume across
// chunk boundaries, and the longest reader drives generation past the
// others.
var tapeReaders = []int{1, tapeChunk - 1, tapeChunk, tapeChunk + 1, 5*tapeChunk + 17, 1000}

// streamOf draws n accesses from a fresh generator.
func streamOf(t *testing.T, p Profile, seed int64, base uint64, n int) []Access {
	t.Helper()
	g, err := NewGenerator(p, seed, base)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestTapeCursorsMatchGenerator pins the tape's contract for every core
// profile of every workload: each cursor of one tape reads exactly a
// fresh Generator's stream, whether the cursors take turns or read
// concurrently (run under -race to check the chunk hand-off).
func TestTapeCursorsMatchGenerator(t *testing.T) {
	for _, w := range AllWorkloads() {
		profiles, err := MixProfiles(w)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range profiles {
			seed, base := int64(11+i*7919), uint64(i)*4096
			want := streamOf(t, p, seed, base, tapeReaders[len(tapeReaders)-1])
			// Interleaved: every cursor advances one access per round,
			// so each chunk is generated by whichever cursor gets there
			// first and replayed by the rest.
			tape, err := NewTape(p, seed, base)
			if err != nil {
				t.Fatal(err)
			}
			cursors := make([]*Cursor, len(tapeReaders))
			for j := range cursors {
				cursors[j] = tape.Cursor()
			}
			for k := 0; k < tapeReaders[len(tapeReaders)-1]; k++ {
				for j, n := range tapeReaders {
					if k < n {
						if got := cursors[j].Next(); got != want[k] {
							t.Fatalf("%s core %d: interleaved cursor %d diverges at access %d", w, i, j, k)
						}
					}
				}
			}

			// Concurrent: one goroutine per cursor on a fresh tape.
			tape, err = NewTape(p, seed, base)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, n := range tapeReaders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := tape.Cursor()
					for k := 0; k < n; k++ {
						if got := c.Next(); got != want[k] {
							t.Errorf("%s core %d: concurrent cursor reading %d diverges at access %d", w, i, n, k)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestNewTapeRejectsInvalidProfile checks that a tape validates its
// generator's arguments as NewGenerator does.
func TestNewTapeRejectsInvalidProfile(t *testing.T) {
	p := Profiles["lbm"]
	p.WorkingSetPages = 0
	if _, err := NewTape(p, 1, 0); err == nil {
		t.Fatal("NewTape accepted a profile with no working set")
	}
}

// TestRecycledTapeChunksReplayExactly builds each benchmark's tape on
// the chunks of a recycled tape of another benchmark and seed, whose
// chunks hold other numbers of write payloads, and requires its cursor
// to read exactly a fresh Generator's stream.
func TestRecycledTapeChunksReplayExactly(t *testing.T) {
	const n = 1000
	var names []string
	for name := range Profiles {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		old, err := NewTape(Profiles[names[(i+1)%len(names)]], int64(i+100), 0)
		if err != nil {
			t.Fatal(err)
		}
		c := old.Cursor()
		for range n {
			c.Next()
		}
		old.Recycle()

		want := streamOf(t, Profiles[name], 11, 4096, n)
		tape, err := NewTape(Profiles[name], 11, 4096)
		if err != nil {
			t.Fatal(err)
		}
		c = tape.Cursor()
		for k := range want {
			if got := c.Next(); got != want[k] {
				t.Fatalf("%s: a tape on recycled chunks diverges at access %d", name, k)
			}
		}
	}
}
