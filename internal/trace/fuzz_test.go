package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceLoad fuzzes the trace-file parser: arbitrary bytes must never
// panic Load, and a trace that loads must survive a round trip: recording
// the replayer again and loading that gives the same provenance and the
// same accesses.
func FuzzTraceLoad(f *testing.F) {
	g, err := NewGenerator(Profiles["lbm"], 3, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, g, "lbm", 3, 24); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, i := range []int{0, 5, len(valid) / 4, len(valid) / 2, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x41
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := Record(&again, rep, rep.Workload, rep.Seed, uint64(rep.Len())); err != nil {
			t.Fatalf("re-recording a loaded trace: %v", err)
		}
		back, err := Load(&again)
		if err != nil {
			t.Fatalf("loading a re-recorded trace: %v", err)
		}
		if back.Workload != rep.Workload || back.Seed != rep.Seed || back.Len() != rep.Len() {
			t.Fatalf("round trip changed the header: %q/%d/%d, loaded %q/%d/%d",
				back.Workload, back.Seed, back.Len(), rep.Workload, rep.Seed, rep.Len())
		}
		for i, a := range rep.accesses {
			if back.accesses[i] != a {
				t.Fatalf("round trip changed access %d: %+v, loaded %+v", i, back.accesses[i], a)
			}
		}
	})
}
