package sim

import (
	"slices"
	"sync"

	"ladder/internal/reram"
	"ladder/internal/trace"
)

// soloResidents lends solo runs (Run, RunCtx outside a grid) the resident
// rows and access streams of recent runs of the same machine. A row's
// resident content is a pure function of (level, seed, row) and a stream
// a pure function of its streamKey, so a run that reads another run's
// image or tape reads exactly what it would have drawn itself: comparing
// schemes with one solo run each draws every row and every stream once,
// as a grid does.
var soloResidents residentRegistry

// keepReleased is how many machines no run holds the registry retains:
// enough for a caller that runs a workload's schemes one after another,
// or two workloads side by side, to find its rows and streams again.
const keepReleased = 2

// residentRegistry maps each machine a solo run simulates to one shared
// reram.Resident and the machine's trace.Tapes. An entry lives while any
// run holds it, and after its last run releases it as long as it is one
// of the keepReleased most recently released entries. So it retains the
// images and tapes of the runs in flight plus those of two machines. A
// retained tape keeps every access its longest run read (stored
// compactly, see trace.Tape).
type residentRegistry struct {
	mu      sync.Mutex
	entries map[soloKey]*soloResident
	// idle lists the entries no run holds, least recently released
	// first.
	idle []*soloResident
}

// soloKey names a machine: the workload whose rows a run touches and the
// (level, seed) that fixes their content. Keying by workload keeps one
// entry to the rows one workload touches, so retention is bounded by
// machines, not by the union of every workload run with a seed.
type soloKey struct {
	workload string
	residentKey
}

// soloResident is one registry entry and the number of runs holding it.
// Its tapes are keyed by streamKey, which also fixes the geometry-clamped
// footprints, so runs of one machine on different geometries each get
// their own streams.
type soloResident struct {
	key   soloKey
	rows  *reram.Resident
	users int

	mu    sync.Mutex
	tapes map[streamKey]*trace.Tape
}

// tape returns the entry's tape for k, creating it on first use.
func (e *soloResident) tape(k streamKey) (*trace.Tape, error) {
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
func (g *residentRegistry) acquire(k soloKey) *soloResident {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[k]
	switch {
	case e == nil:
		if g.entries == nil {
			g.entries = make(map[soloKey]*soloResident)
		}
		e = &soloResident{key: k, rows: reram.NewResident(k.level, k.seed)}
		g.entries[k] = e
	case e.users == 0:
		g.idle = slices.DeleteFunc(g.idle, func(x *soloResident) bool { return x == e })
	}
	e.users++
	return e
}

// release drops one user of e. An entry left without users joins the
// idle list, and the least recently released idle entry beyond
// keepReleased is dropped. An entry drop removed while in use is
// forgotten when its last user releases it.
func (g *residentRegistry) release(e *soloResident) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e.users--; e.users > 0 || g.entries[e.key] != e {
		return
	}
	g.idle = append(g.idle, e)
	if len(g.idle) > keepReleased {
		delete(g.entries, g.idle[0].key)
		g.idle = slices.Delete(g.idle, 0, 1)
	}
}

// drop empties the registry. Runs in flight keep the images and tapes
// they hold.
func (g *residentRegistry) drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries, g.idle = nil, nil
}

// DropResidents empties the process-wide registry through which solo
// runs share resident row images and access streams, so the next solo
// run of any machine draws its rows and streams cold. Runs in flight
// keep what they hold. Results never depend on it; it frees the
// retained images and tapes of a long-lived process and lets a
// benchmark time a cold run.
func DropResidents() { soloResidents.drop() }
