package sim

import (
	"slices"
	"sync"

	"ladder/internal/recycle"
	"ladder/internal/reram"
	"ladder/internal/trace"
)

// sharedInputs lends every run — a solo Run and each cell of a grid or
// study alike — the resident rows and access streams of recent runs of
// the same machine. A row's resident content is a pure function of
// (level, seed, row) and a stream a pure function of its streamKey, so a
// run that reads another run's image or tape reads exactly what it would
// have drawn itself: a grid, or one solo run per scheme, draws every row
// and every stream once.
var sharedInputs inputRegistry

// keepReleased is how many machines no run holds the registry retains:
// enough for a caller that runs a workload's schemes one after another,
// or two workloads side by side, to find its rows and streams again.
const keepReleased = 2

// inputRegistry maps each machine a run simulates to the machine's
// trace.Tapes and a reram.Resident shared by every machine of the same
// (level, seed). An entry lives while any run holds it, and after its
// last run releases it as long as it is one of the keepReleased most
// recently released entries. So it retains the tapes of the machines
// held plus those of two more, and one Resident per (level, seed) those
// entries reference. A retained tape keeps every access its longest run
// read (stored compactly, see trace.Tape).
type inputRegistry struct {
	mu      sync.Mutex
	entries map[machineKey]*machineInputs
	// idle lists the entries no run holds, least recently released
	// first.
	idle []*machineInputs
	// rows holds the Resident of each (level, seed) some entry
	// references.
	rows map[residentKey]*sharedRows
}

// residentKey is the (effective level, seed) that fixes every row's
// resident content.
type residentKey struct {
	level int
	seed  uint64
}

// machineKey names a machine: the workload whose streams a run reads and
// the (level, seed) that fixes its rows' content. Keying tapes by
// workload bounds their retention by machines, not by the union of
// every workload run with a seed.
type machineKey struct {
	workload string
	residentKey
}

// sharedRows is one (level, seed)'s Resident and the number of registry
// entries referencing it.
type sharedRows struct {
	rows *reram.Resident
	refs int
}

// machineInputs is one registry entry and the number of runs holding it.
// Its tapes are keyed by streamKey, which also fixes the geometry-clamped
// footprints, so runs of one machine on different geometries each get
// their own streams.
type machineInputs struct {
	key   machineKey
	rows  *reram.Resident
	users int

	mu    sync.Mutex
	tapes map[streamKey]*trace.Tape
}

// tape returns the entry's tape for k, creating it on first use.
func (e *machineInputs) tape(k streamKey) (*trace.Tape, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tapes[k]
	if t == nil {
		var err error
		if t, err = k.newTape(); err != nil {
			return nil, err
		}
		if e.tapes == nil {
			e.tapes = make(map[streamKey]*trace.Tape)
		}
		e.tapes[k] = t
	}
	return t, nil
}

// acquire returns k's entry, creating it on first use, with one more
// user. The caller hands it back with release.
func (g *inputRegistry) acquire(k machineKey) *machineInputs {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[k]
	switch {
	case e == nil:
		r := g.rows[k.residentKey]
		if r == nil {
			if g.rows == nil {
				g.rows = make(map[residentKey]*sharedRows)
			}
			r = &sharedRows{rows: reram.NewResident(k.level, k.seed)}
			g.rows[k.residentKey] = r
		}
		r.refs++
		if g.entries == nil {
			g.entries = make(map[machineKey]*machineInputs)
		}
		e = &machineInputs{key: k, rows: r.rows}
		g.entries[k] = e
	case e.users == 0:
		g.idle = slices.DeleteFunc(g.idle, func(x *machineInputs) bool { return x == e })
	}
	e.users++
	return e
}

// release drops one user of e. An entry left without users joins the
// idle list, and the least recently released idle entry beyond
// keepReleased is evicted: its tapes are recycled, and so is its
// Resident if no other entry references it. An entry drop removed while
// in use is forgotten when its last user releases it: it counts toward
// no Resident of the registry, and nothing of it is recycled, as runs
// that took it before the drop may still read it.
func (g *inputRegistry) release(e *machineInputs) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.users--; e.users > 0 || g.entries[e.key] != e {
		return
	}
	g.idle = append(g.idle, e)
	if len(g.idle) > keepReleased {
		old := g.idle[0]
		g.idle = slices.Delete(g.idle, 0, 1)
		delete(g.entries, old.key)
		for _, t := range old.tapes {
			t.Recycle()
		}
		r := g.rows[old.key.residentKey]
		if r.refs--; r.refs == 0 {
			delete(g.rows, old.key.residentKey)
			r.rows.Recycle()
		}
	}
}

// drop empties the registry. Runs in flight keep the images and tapes
// they hold.
func (g *inputRegistry) drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries, g.idle, g.rows = nil, nil, nil
}

// DropResidents empties the process-wide registry through which every
// run, solo or a grid's cell, shares resident row images and access
// streams, so the next run of any machine draws its rows and streams
// cold, and empties the pools through which runs recycle their storage,
// so the next runs allocate it afresh. It frees what recent
// solo runs and finished grids and studies left behind; runs in flight
// keep what they hold. Results never depend on it; it frees the
// retained images, tapes and storage of a long-lived process and lets a
// benchmark time a cold run.
func DropResidents() {
	sharedInputs.drop()
	recycle.Drop()
}
