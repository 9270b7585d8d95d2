package core

import (
	"testing"

	"ladder/internal/reram"
)

// BenchmarkMetaCacheReserveFill times one metadata miss as a LADDER
// scheme and the controller handle it: Lookup misses, Reserve takes the
// set's least recently used way (writing back the dirty line it
// evicts), Fill synthesizes the line, and the completed write dirties
// it and drops its sharer. Keys cycle through 16 times the default
// cache's lines, so nearly every op evicts a dirty line. One op is one
// miss.
func BenchmarkMetaCacheReserveFill(b *testing.B) {
	c, err := NewMetaCache(DefaultMetaCacheConfig())
	if err != nil {
		b.Fatal(err)
	}
	c.SetInitializer(func(key uint64) MetaLine { return MetaLine{byte(key)} })
	keys := uint64(16 * DefaultMetaCacheConfig().SizeBytes / MetaLineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i) % keys
		if present, _ := c.Lookup(key); present {
			continue
		}
		if _, ok := c.Reserve(key, reram.Location{}); !ok {
			b.Fatal("no evictable way")
		}
		c.Fill(key)
		c.MarkDirty(key)
		c.Release(key)
	}
}
