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
