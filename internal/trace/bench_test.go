package trace

import "testing"

// benchAccess keeps the measured calls' results live.
var benchAccess Access

// BenchmarkGeneratorNext times one access of the stream, reads and
// written-line synthesis mixed in each profile's proportion. The profiles
// are the write-heavy, dense lbm and the benchmark anchors' mcf and astar.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"lbm", "mcf", "astar"} {
		b.Run(name, func(b *testing.B) {
			g, err := NewGenerator(Profiles[name], 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAccess = g.Next()
			}
		})
	}
}

// BenchmarkTapeNext times one access replayed from a tape whose stream
// is already generated — the cost a grid cell pays per access once
// another cell of its workload has drawn the stream — for the same
// profiles as BenchmarkGeneratorNext. The tape holds a fixed 64 chunks,
// replayed by a fresh cursor each time one reaches the end, so the
// benchmark's memory does not grow with b.N.
func BenchmarkTapeNext(b *testing.B) {
	const n = 64 * tapeChunk
	for _, name := range []string{"lbm", "mcf", "astar"} {
		b.Run(name, func(b *testing.B) {
			tape, err := NewTape(Profiles[name], 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			lead := tape.Cursor()
			for i := 0; i < n; i++ {
				lead.Next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				c := tape.Cursor()
				for i := 0; i < n && done < b.N; i++ {
					benchAccess = c.Next()
					done++
				}
			}
		})
	}
}
