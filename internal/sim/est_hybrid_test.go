package sim

import (
	"encoding/json"
	"testing"

	"ladder/internal/core"
)

// estHybridConfigs are the configurations the Est/Hybrid equivalence
// tests cover: the cell goldens' default and degraded shapes, a crash
// with the conservative metadata correction, the 16 KB point of the
// cache-size sweep, and a 512 B cache small enough to spill.
var estHybridConfigs = append(cellConfigs[:len(cellConfigs):len(cellConfigs)],
	cellConfig{"crash", func(c *Config) { c.CrashAtInstr = 10_000 }},
	cellConfig{"cache16k", func(c *Config) {
		c.MetaCache = core.MetaCacheConfig{SizeBytes: 16 << 10, Ways: 4, SpillSize: 16}
	}},
	cellConfig{"cache512", func(c *Config) {
		c.MetaCache = core.MetaCacheConfig{SizeBytes: 512, Ways: 2, SpillSize: 16}
	}},
)

// strippedReportJSON runs cfg and returns its report with host timing
// stripped and the scheme label blanked, so runs of differently named
// schemes compare by behaviour alone.
func strippedReportJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Workload, cfg.Scheme, err)
	}
	rep := NewReport(res).StripVolatile()
	rep.Scheme = ""
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// estHybridRuns calls check for every (workload, configuration) pair
// with that pair's config; check sets the scheme.
func estHybridRuns(t *testing.T, check func(t *testing.T, base Config)) {
	for _, w := range []string{"lbm", "mcf", "mix-1"} {
		for _, cc := range estHybridConfigs {
			base := testConfig(t, w, "")
			base.InstrPerCore = 20_000
			if cc.edit != nil {
				cc.edit(&base)
			}
			t.Run(w+"/"+cc.name, func(t *testing.T) { check(t, base) })
		}
	}
}

// TestEstIsHybridWithoutLowRows pins the paper's construction: LADDER-
// Hybrid is LADDER-Est plus a precision control register, so with the
// register at 0 (no low-precision rows) it is LADDER-Est, run for run.
func TestEstIsHybridWithoutLowRows(t *testing.T) {
	estHybridRuns(t, func(t *testing.T, base Config) {
		est, hybrid := base, base
		est.Scheme = SchemeEst
		hybrid.Scheme, hybrid.HybridLowRows = SchemeHybrid, -1
		e, h := strippedReportJSON(t, est), strippedReportJSON(t, hybrid)
		if string(e) != string(h) {
			t.Errorf("LADDER-Est and LADDER-Hybrid without low rows diverge:\n est:    %.300s\n hybrid: %.300s", e, h)
		}
	})
}

// TestHybridLowRowsIgnoredByEst checks that the precision control
// register knob applies to LADDER-Hybrid only: LADDER-Est (with or
// without shifting) has no low-precision region to resize.
func TestHybridLowRowsIgnoredByEst(t *testing.T) {
	for _, scheme := range []string{SchemeEst, SchemeEstNoShift} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			estHybridRuns(t, func(t *testing.T, base Config) {
				base.Scheme = scheme
				plain := strippedReportJSON(t, base)
				for _, rows := range []int{-1, 32, 128} {
					c := base
					c.HybridLowRows = rows
					if got := strippedReportJSON(t, c); string(got) != string(plain) {
						t.Errorf("HybridLowRows=%d changed a %s run", rows, scheme)
					}
				}
			})
		})
	}
}
