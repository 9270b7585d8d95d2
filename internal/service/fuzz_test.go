package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ladder/internal/sim"
)

// FuzzNormalizeRequest fuzzes the submission path's parse+normalize
// pipeline the way POST /jobs drives it: arbitrary bytes must never
// panic, and any request that normalizes successfully must normalize
// idempotently and content-hash stably (normalization is what makes
// spelling variants dedupe onto one job ID — a second pass must not
// move the hash).
func FuzzNormalizeRequest(f *testing.F) {
	seeds := []string{
		`{"workloads":["astar"],"schemes":["Baseline"]}`,
		`{"workloads":["astar"],"schemes":["ladder-hybrid"],"instr":200000}`,
		`{"workloads":["astar","lbm"],"schemes":["LADDER-Basic","LADDER-Est"],"seed":7}`,
		`{"workloads":[],"schemes":[]}`,
		`{"workloads":["nope"],"schemes":["Baseline"]}`,
		`{"workloads":["astar"],"schemes":["BASELINE"],"retry_max":-1}`,
		`{"workloads":["astar"],"schemes":["Baseline"],"instr":18446744073709551615}`,
		`{"workloads": [`,
		`null`,
		`[]`,
		`{"workloads":["astar"],"schemes":["Baseline"],"bogus":1}`,
		"{\"workloads\":[\"\\u0000\"],\"schemes\":[\"\\uffff\"]}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // a reject is fine; a panic is the bug
		}
		if err := req.normalize(10_000_000); err != nil {
			return
		}
		id1 := req.id()
		// Normalization is canonical: running it again must change
		// neither the request nor its content hash.
		again := req
		if err := again.normalize(10_000_000); err != nil {
			t.Fatalf("normalized request failed re-normalization: %v", err)
		}
		if id2 := again.id(); id2 != id1 {
			t.Fatalf("hash moved across normalizations: %s vs %s", id1, id2)
		}
		if id1 == "" || len(id1) != 16 {
			t.Fatalf("malformed job ID %q", id1)
		}
	})
}

// FuzzOpenStateDir fuzzes recovery the way a crash or a damaged disk
// drives it: arbitrary bytes as a job's record and report blob, beside a
// stray temp file. Recovery must never panic or fail, must only recover
// jobs filed under their own request's hash and done jobs whose report
// matches the hash their record vouches for, must count each bad file
// in CorruptRecords exactly once, and must leave a directory the next
// boot recovers the same jobs from without counting anything again.
func FuzzOpenStateDir(f *testing.F) {
	req := Request{Workloads: []string{"astar"}, Schemes: []string{"Baseline"}, Instr: sim.DefaultInstr}
	id := req.id()
	other := req
	other.Seed = 1
	blob := []byte(`{"schema":"test"}`)
	record := func(r Request, state string, report []byte) []byte {
		b, err := json.Marshal(jobRecord{Req: r, State: state, SHA: sha256Hex(report)})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := record(req, StateDone, blob)
	f.Add(valid, blob)                                  // valid done record
	f.Add(valid[:len(valid)/2], blob)                   // truncated record
	f.Add(record(req, "started", blob), blob)           // unknown state
	f.Add(record(other, StateDone, blob), blob)         // request filed under another ID
	f.Add(valid, []byte(`{"schema":"tampered"}`))       // tampered blob
	f.Add(record(req, stateAccepted, nil), []byte(nil)) // queued, orphan blob
	f.Fuzz(func(t *testing.T, jobBytes, blobBytes []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{id + ".job": jobBytes, id + ".json": blobBytes, id + ".job.tmp": jobBytes} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, rec, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		want := 0
		r, ok := decodeRecord(jobBytes, id)
		switch {
		case !ok:
			want = 1
		case r.State == StateDone && sha256Hex(blobBytes) != r.SHA:
			want = 1
		}
		if rec.CorruptRecords != want {
			t.Fatalf("corrupt records = %d, want %d", rec.CorruptRecords, want)
		}
		if len(rec.Jobs) > 1 || ok != (len(rec.Jobs) == 1) {
			t.Fatalf("recovered %d jobs from a record that decodes: %v", len(rec.Jobs), ok)
		}
		for _, j := range rec.Jobs {
			if j.Req.id() != j.ID {
				t.Fatalf("job %s recovered with a request hashing to %s", j.ID, j.Req.id())
			}
			if j.State == StateDone && sha256Hex(j.Report) != r.SHA {
				t.Fatalf("done job serves bytes its record does not vouch for")
			}
		}
		if _, err := os.Stat(filepath.Join(dir, id+".job.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stray temp file survived recovery (err=%v)", err)
		}
		_, err = os.Stat(filepath.Join(dir, id+".json"))
		if kept, done := err == nil, len(rec.Jobs) == 1 && rec.Jobs[0].State == StateDone; kept != done {
			t.Fatalf("report blob kept = %v for a recovered done job = %v", kept, done)
		}
		_, again, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		if again.CorruptRecords != 0 || len(again.Jobs) != len(rec.Jobs) {
			t.Fatalf("second boot: %d corrupt, %d jobs; want 0 corrupt, %d jobs",
				again.CorruptRecords, len(again.Jobs), len(rec.Jobs))
		}
	})
}
