// Package energy models dynamic memory energy at mat level, standing in
// for the paper's NVMain analysis (Section 6.3). Reads cost a fixed
// sensing/burst energy per line. Write energy has two components: the
// array biasing energy, proportional to how long the RESET pulse holds
// the crossbar biased (this is what variable-latency writes save), and a
// per-cell switching energy proportional to the number of bits actually
// changed (what Flip-N-Write saves).
package energy

import "errors"

// Params are the per-event energy coefficients in nanojoules. The
// absolute scale follows device-level numbers from Kawahara et al. (JSSC
// 2012) only loosely; the evaluation reports energies normalized to the
// baseline scheme, so only the ratios matter.
type Params struct {
	// ReadPerLineNJ is the energy of one 64-byte array read.
	ReadPerLineNJ float64
	// WritePulsePerNsNJ is the biasing power drawn while a RESET pulse is
	// applied (per nanosecond of programmed tWR).
	WritePulsePerNsNJ float64
	// PerBitChangeNJ is the switching energy per cell actually toggled.
	PerBitChangeNJ float64
}

// DefaultParams returns coefficients that put baseline write energy about
// an order of magnitude above read energy, matching the relative scales
// NVM energy studies report.
func DefaultParams() Params {
	return Params{
		ReadPerLineNJ:     2.0,
		WritePulsePerNsNJ: 0.06,
		PerBitChangeNJ:    0.05,
	}
}

// Validate reports whether the coefficients are usable.
func (p Params) Validate() error {
	if p.ReadPerLineNJ < 0 || p.WritePulsePerNsNJ < 0 || p.PerBitChangeNJ < 0 {
		return errors.New("energy: coefficients must be non-negative")
	}
	return nil
}

// Meter accumulates dynamic energy for one simulation.
type Meter struct {
	p Params
	// ReadNJ and WriteNJ are the accumulated read and write energies.
	ReadNJ, WriteNJ float64
	// Reads and Writes count the metered events.
	Reads, Writes uint64
}

// NewMeter returns a meter with the given coefficients.
func NewMeter(p Params) (*Meter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Meter{p: p}, nil
}

// Read meters one array read.
func (m *Meter) Read() {
	m.ReadNJ += m.p.ReadPerLineNJ
	m.Reads++
}

// Write meters one array write with the programmed pulse width and the
// number of cells toggled.
func (m *Meter) Write(pulseNs float64, bitsChanged int) {
	m.WriteNJ += m.p.WritePulsePerNsNJ*pulseNs + m.p.PerBitChangeNJ*float64(bitsChanged)
	m.Writes++
}
