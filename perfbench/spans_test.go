package main

import (
	"testing"
	"time"
)

func ivl(name string, parent int, start, end time.Duration) span {
	return span{name: name, parent: parent, start: start, end: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		ivl("bench.cell", -1, 0, 10),
		ivl("sim.run", 0, 1, 3),
		ivl("sim.report_json", 0, 2, 5), // overlaps the previous child
		ivl("tracing.export", 0, 8, 12), // runs past the parent's end
		ivl("timing.lookup", 1, 1, 2),   // grandchild: charged to sim.run only
		ivl("bench.other", -1, 20, 30),  // a second root, no children
	}
	got := selfTimes(spans)
	// Parent 0: children cover [1,5] and [8,10] of [0,10] → 10-6 = 4.
	want := []time.Duration{4, 1, 3, 4, 1, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTableGroupsByName(t *testing.T) {
	spans := []span{
		ivl("sim.grid", -1, 0, 100),
		ivl("sim.cell", 0, 0, 60),
		ivl("sim.cell", 0, 10, 90), // two workers: union [0,90]
		ivl("sim.cell", 0, 95, 96),
		ivl("service.run", -1, 5, -1), // never closed
	}
	rows := selfTable(spans)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want sim.cell and sim.grid only", rows)
	}
	if rows[0].name != "sim.cell" || rows[0].count != 3 || rows[0].self != 60+80+1 {
		t.Errorf("sim.cell row = %+v", rows[0])
	}
	if rows[1].name != "sim.grid" || rows[1].self != 100-91 {
		t.Errorf("sim.grid row = %+v, want self 9", rows[1])
	}
	if l := spans[1].layer(); l != "sim" {
		t.Errorf("layer = %q", l)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	h := r.begin("sim.run", 1, -1)
	r.end(h)
	if r.snapshot() != nil {
		t.Error("nil recorder kept spans")
	}
}
