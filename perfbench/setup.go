package main

import (
	"fmt"
	"time"

	"ladder/internal/circuit"
	"ladder/internal/timing"
)

// construct builds a workload on freshly generated tables and returns
// the function that tears it down again (nil when nothing needs it).
type construct func(ts *timing.TableSet) (teardown func(), err error)

// tracedSetup is NewTableSet step by step, each step a span and a
// per-layer metric, followed by the workload's construction.
func (b *bench) tracedSetup(build construct) (func(), error) {
	p := circuit.DefaultParams()
	root := b.rec.begin("bench.setup", 0, -1)
	defer b.rec.end(root)
	step := func(span, metricName string, f func() error) error {
		h := b.rec.begin(span, 0, root)
		start := time.Now()
		err := f()
		b.set(metricName, time.Since(start).Seconds(), "s")
		b.rec.end(h)
		return err
	}
	var m timing.Model
	if err := step("timing.calibrate", "timing.calibrate_s", func() (err error) {
		m, err = timing.Calibrate(p)
		return err
	}); err != nil {
		return nil, fmt.Errorf("calibrating: %w", err)
	}
	tables := map[string]*timing.Table{}
	for _, g := range []struct {
		name string
		opts timing.TableOptions
	}{
		{"wl", timing.TableOptions{Content: timing.WLContent}},
		{"bl", timing.TableOptions{Content: timing.BLContent}},
		{"half", timing.TableOptions{Content: timing.WLContent, SelectedCells: 4}},
	} {
		if err := step("timing.generate_"+g.name, "timing.generate_"+g.name+"_s", func() (err error) {
			tables[g.name], err = timing.Generate(p, m, g.opts)
			return err
		}); err != nil {
			return nil, fmt.Errorf("generating the %s table: %w", g.name, err)
		}
	}
	ts := &timing.TableSet{Model: m, WL: tables["wl"], BL: tables["bl"], Half: tables["half"],
		WorstNs: tables["wl"].WorstCase()}
	b.tables = ts
	cells := 0
	for _, t := range tables {
		cells += len(t.LatNs) * len(t.LatNs[0]) * len(t.LatNs[0][0])
	}
	b.set("timing.cells", float64(cells), "count")
	h := b.rec.begin("bench.construct", 0, root)
	defer b.rec.end(h)
	return build(ts)
}
