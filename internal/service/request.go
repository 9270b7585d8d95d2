package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"ladder/internal/core"
	"ladder/internal/sim"
	"ladder/internal/trace"
)

// Request is the body of POST /jobs: one simulation grid, expressed as
// the JSON-resolved form of sim.Options plus the scheme list. A single
// run is a 1×1 grid. Zero-valued fields select the simulator's defaults,
// and normalization makes those defaults explicit before hashing, so
// "instr": 200000 and an absent "instr" dedupe onto the same job. A
// request runs the default machine configuration: it sets no fault,
// wear-leveling or timeline knob.
type Request struct {
	// Workloads lists the benchmark/mix names to simulate (required).
	Workloads []string `json:"workloads"`
	// Schemes lists the write schemes to run each workload under
	// (required). Names resolve case-insensitively against the scheme
	// registry and normalize to the registered spelling.
	Schemes []string `json:"schemes"`
	// Instr is the per-core instruction budget (0 = sim.DefaultInstr).
	Instr uint64 `json:"instr,omitempty"`
	// Seed makes the grid deterministic (identical seed + configuration
	// ⇒ byte-identical report).
	Seed int64 `json:"seed,omitempty"`
}

// normalize validates the request and rewrites it into canonical form:
// defaults made explicit, scheme names resolved to their registered
// spelling. Returned errors are client errors (HTTP 400).
func (r *Request) normalize(maxInstr uint64) error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("request needs at least one workload")
	}
	if len(r.Schemes) == 0 {
		return fmt.Errorf("request needs at least one scheme")
	}
	for _, w := range r.Workloads {
		if _, err := trace.MixProfiles(w); err != nil {
			return fmt.Errorf("unknown workload %q (known: %s)", w, strings.Join(trace.AllWorkloads(), " "))
		}
	}
	for i, s := range r.Schemes {
		canon, err := core.SchemeName(s)
		if err != nil {
			return err
		}
		r.Schemes[i] = canon
	}
	if r.Instr == 0 {
		r.Instr = sim.DefaultInstr
	}
	if maxInstr > 0 && r.Instr > maxInstr {
		return fmt.Errorf("instr %d exceeds this server's per-core budget cap %d", r.Instr, maxInstr)
	}
	opts, _ := r.options()
	return opts.Validate()
}

// id content-hashes the normalized request: the job identifier, and the
// key identical submissions dedupe and cache under. Field order is fixed
// by the struct, so the canonical JSON is stable.
func (r *Request) id() string {
	b, err := json.Marshal(r)
	if err != nil {
		// A Request is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("service: hashing request: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// options lowers the normalized request into the sim package's terms.
func (r *Request) options() (sim.Options, []string) {
	return sim.Options{
		Instr:     r.Instr,
		Seed:      r.Seed,
		Workloads: r.Workloads,
	}, r.Schemes
}
