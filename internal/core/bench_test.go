package core

import (
	"testing"

	"ladder/internal/metrics"
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

// BenchmarkHybridMetaFill times one LADDER-Hybrid metadata fill on a
// fresh Resident, the cost a new seed's first run pays per metadata
// miss: the controller materializes the written row (EnsureRow), then
// the fill synthesizes the line from resident content. high fills an
// Est-layout line, which covers the written row; low fills a
// low-precision line, whose key covers four rows. One op is one fill,
// including the fresh Resident and store and every image they build.
func BenchmarkHybridMetaFill(b *testing.B) {
	g := reram.DefaultGeometry()
	for _, prec := range []string{"high", "low"} {
		b.Run(prec, func(b *testing.B) {
			env := &Env{Geom: g, Metrics: metrics.NewRegistry()}
			var err error
			if env.Store, err = reram.NewStore(g); err != nil {
				b.Fatal(err)
			}
			h, err := NewHybridCache(env, DefaultMetaCacheConfig())
			if err != nil {
				b.Fatal(err)
			}
			// The first page whose wordline group has the wanted
			// precision.
			var loc reram.Location
			for line := uint64(0); ; line += reram.BlocksPerRow {
				if loc, err = g.Decode(line); err != nil {
					b.Fatal(err)
				}
				if (loc.WL < DefaultLowPrecisionRows) == (prec == "low") {
					break
				}
			}
			row := g.GlobalRow(loc)
			key, _ := h.layout.HybridKey(g.Encode(loc), row, loc.WL)
			var r *reram.Resident
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Store.Recycle()
				r.Recycle()
				r = reram.NewResident(2, uint64(i))
				if env.Store, err = reram.NewStore(g); err != nil {
					b.Fatal(err)
				}
				env.Store.UseShiftedDatapath()
				env.Store.UseResident(r)
				env.Store.EnsureRow(row)
				if _, ok := h.cache.Reserve(key, loc); !ok {
					b.Fatal("no evictable way")
				}
				h.cache.Fill(key)
				h.cache.Release(key)
				h.cache.Crash()
				delete(h.cache.backing, key)
			}
		})
	}
}
