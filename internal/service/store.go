package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"ladder/internal/chaos"
)

// The durable job store: one small record per retained job plus the
// fsync'd report blob of each completed one, under a state directory:
//
//	<state-dir>/<id>.job  the job's normalized request and latest state
//	<state-dir>/<id>.json a done job's report, the exact served bytes
//
// Job IDs are content hashes of the normalized request and reports are
// deterministic, so a job's latest state is all a restart needs. Every
// transition replaces the job's record whole (temp file, fsync, rename,
// directory sync), so a crash leaves either the old record or the new
// one, never a mix. A report blob lands the same way before the done
// record that carries its SHA-256, so a done record never vouches for
// bytes that were not fully written.
//
// Store write failures are deliberately non-fatal: the service keeps
// serving from memory, the first failure is retained (Err) so readiness
// probes can report degraded durability, and every failure is counted.

// stateAccepted is the record state of a job admitted but not yet
// started. The other record states are the job states running, done,
// failed and canceled.
const stateAccepted = "accepted"

// jobRecord is the content of <id>.job.
type jobRecord struct {
	Req   Request `json:"req"`
	State string  `json:"state"`
	Err   string  `json:"error,omitempty"` // failed/canceled records
	// Crash marks a failure the process caused (a crash, watchdog
	// abandonment) rather than the request, which keeps the job
	// resubmittable across further restarts.
	Crash bool `json:"crash,omitempty"`
	// SHA is the hex SHA-256 of the report blob a done record vouches for.
	SHA string `json:"report_sha256,omitempty"`
}

// RecoveredJob is one job reconstructed from the state directory. State
// is StateQueued for jobs to re-enqueue and a terminal state otherwise;
// Report is the exact blob bytes for done jobs.
type RecoveredJob struct {
	ID      string
	Req     Request
	State   string
	ErrMsg  string
	Report  []byte
	Crashed bool
}

// Recovery summarizes one boot's recovery.
type Recovery struct {
	// Jobs lists every retained job, least recently changed first (by
	// record modification time, ties broken by ID).
	Jobs []RecoveredJob
	// Requeued counts jobs returned to the pending queue (accepted but
	// never started before the previous process exited).
	Requeued int
	// FailedByCrash counts jobs marked failed because the previous
	// process died mid-run (or their report blob was lost).
	FailedByCrash int
	// CorruptRecords counts job records that did not parse, named an
	// unknown state or were filed under another job's ID, plus done
	// records whose report blob was missing or failed its hash check.
	// Each is counted by the boot that finds it: a bad record is removed
	// and a done record with a bad blob is rewritten as a crash failure.
	CorruptRecords int
}

// Store is the durable half of a Service. A nil *Store is valid and
// turns every method into a no-op, so the in-memory service runs the
// same code paths.
type Store struct {
	dir string

	// mu serializes writes to the state directory and guards the error
	// state below.
	mu        sync.Mutex
	err       error // first write failure, sticky (readiness signal)
	writeErrs uint64
}

// OpenStore opens (creating if needed) a state directory and recovers
// the jobs recorded in it. A directory laid out by an older release, with
// a job journal, is refused rather than half-read.
func OpenStore(dir string) (*Store, *Recovery, error) {
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err == nil {
		return nil, nil, fmt.Errorf("service: state dir %s holds journal.jsonl, the job journal of an older release, which this release does not read; move it and the reports/ directory aside and restart (their jobs re-run when resubmitted)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: creating state dir: %w", err)
	}
	st := &Store{dir: dir}
	rec, err := st.recover()
	if err != nil {
		return nil, nil, err
	}
	return st, rec, nil
}

func (st *Store) path(id, ext string) string { return filepath.Join(st.dir, id+ext) }

// recover lists the state directory once and resolves every job record
// to its outcome: accepted re-queues, running becomes failed-by-crash,
// done serves its blob if the blob's hash matches (else failed-by-crash),
// failed and canceled stay as they are. Crash outcomes are written back,
// so the next boot finds them as plain failures.
func (st *Store) recover() (*Recovery, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading state dir: %w", err)
	}
	mtime := make(map[string]time.Time)
	done := make(map[string]bool)
	rec := &Recovery{}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(st.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted replace; the file it was to replace is intact.
			os.Remove(path) //nolint:errcheck // best-effort cleanup
			continue
		}
		if id, ok := strings.CutSuffix(name, ".json"); ok {
			// ReadDir lists by name, so <id>.job was resolved before
			// <id>.json. A blob no done record vouches for was written
			// before a crash lost its done record, or outlived an
			// interrupted eviction.
			if !done[id] {
				os.Remove(path) //nolint:errcheck // best-effort cleanup
			}
			continue
		}
		id, ok := strings.CutSuffix(name, ".job")
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("service: reading job record: %w", err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("service: reading job record: %w", err)
		}
		r, ok := decodeRecord(b, id)
		if !ok {
			rec.CorruptRecords++
			os.Remove(path) //nolint:errcheck // best-effort cleanup
			continue
		}
		j := RecoveredJob{ID: id, Req: r.Req, State: r.State, ErrMsg: r.Err, Crashed: r.Crash}
		switch r.State {
		case stateAccepted:
			j.State = StateQueued
			rec.Requeued++
		case StateRunning:
			st.failByCrash(&j, "failed by crash: the previous service process exited mid-run")
			rec.FailedByCrash++
		case StateDone:
			if j.Report, err = st.loadReport(id, r.SHA); err != nil {
				st.failByCrash(&j, fmt.Sprintf("failed by crash: completed report lost (%v)", err))
				rec.FailedByCrash++
				rec.CorruptRecords++
			} else {
				done[id] = true
			}
		}
		rec.Jobs = append(rec.Jobs, j)
		mtime[id] = info.ModTime()
	}
	// Entries are in ID order, so a stable sort breaks mtime ties by ID.
	slices.SortStableFunc(rec.Jobs, func(a, b RecoveredJob) int { return mtime[a.ID].Compare(mtime[b.ID]) })
	return rec, nil
}

// decodeRecord parses a job record and checks that the store could have
// written it as <id>.job: a known state, and a request hashing to id.
func decodeRecord(b []byte, id string) (jobRecord, bool) {
	var r jobRecord
	if err := json.Unmarshal(b, &r); err != nil || r.Req.id() != id {
		return r, false
	}
	switch r.State {
	case stateAccepted, StateRunning, StateDone, StateFailed, StateCanceled:
		return r, true
	}
	return r, false
}

// failByCrash turns a recovered job into a crash failure and rewrites its
// record to match, so a later boot recovers the same failure without
// counting it again.
func (st *Store) failByCrash(j *RecoveredJob, errMsg string) {
	j.State, j.ErrMsg, j.Crashed, j.Report = StateFailed, errMsg, true, nil
	st.Finished(j.Req, StateFailed, errMsg, nil, true)
}

// loadReport reads a done job's blob and checks it against the hash its
// record vouches for.
func (st *Store) loadReport(id, wantSHA string) ([]byte, error) {
	b, err := os.ReadFile(st.path(id, ".json"))
	if err != nil {
		return nil, err
	}
	if got := sha256Hex(b); got != wantSHA {
		return nil, fmt.Errorf("report blob hash mismatch (have %.8s, record says %.8s)", got, wantSHA)
	}
	return b, nil
}

// Accepted records a job's admission (or re-admission on resubmit after
// cancel) with its normalized request.
func (st *Store) Accepted(req Request) { st.write(jobRecord{Req: req, State: stateAccepted}, nil) }

// Started records the queued→running transition. A job still running at
// the next boot is failed-by-crash.
func (st *Store) Started(req Request) { st.write(jobRecord{Req: req, State: StateRunning}, nil) }

// Finished records a job's terminal state (done, failed or canceled);
// crash marks failures the process caused, which stay resubmittable. A
// done job's report blob lands first: a crash before its record is
// replaced leaves the job running on disk, failed-by-crash at the next
// boot.
func (st *Store) Finished(req Request, state, errMsg string, report []byte, crash bool) {
	st.write(jobRecord{Req: req, State: state, Err: errMsg, Crash: crash}, report)
}

// write replaces a job's record, after landing the report blob of a done
// one. Failures are sticky and counted, never fatal: the service degrades
// to in-memory operation and readiness reports it.
func (st *Store) write(r jobRecord, report []byte) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	id := r.Req.id()
	if r.State == StateDone {
		if err := writeFileAtomic("service.report.write", st.path(id, ".json"), report); err != nil {
			st.noteErrLocked(fmt.Errorf("report write: %w", err))
			return
		}
		r.SHA = sha256Hex(report)
	}
	b, err := json.Marshal(r)
	if err == nil {
		err = writeFileAtomic("service.state.write", st.path(id, ".job"), b)
	}
	if err != nil {
		st.noteErrLocked(fmt.Errorf("job record write: %w", err))
	}
}

// Evicted forgets an LRU-evicted job. The record goes before the blob,
// so a crash between the two leaves an orphan blob (removed at the next
// boot), never a done record without its report.
func (st *Store) Evicted(id string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := os.Remove(st.path(id, ".job")); err != nil && !errors.Is(err, os.ErrNotExist) {
		st.noteErrLocked(fmt.Errorf("job record remove: %w", err))
		return
	}
	os.Remove(st.path(id, ".json")) //nolint:errcheck // best-effort cleanup
	syncDir(st.dir)
}

func (st *Store) noteErrLocked(err error) {
	st.writeErrs++
	if st.err == nil {
		st.err = err
	}
}

// writeFileAtomic lands b at path durably: temp file, fsync, rename,
// directory sync. failpoint names the chaos site that can fail it.
func writeFileAtomic(failpoint, path string, b []byte) error {
	if err := chaos.Hit(failpoint); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// Err returns the first write failure (nil while the store is healthy).
// Sticky: once durability is lost the readiness probe stays degraded
// until the operator restarts with a writable state dir.
func (st *Store) Err() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// WriteErrs counts record and blob write failures since boot.
func (st *Store) WriteErrs() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeErrs
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort
	d.Close()
}

// sha256Hex is the content-hash form a done record carries for its blob.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
