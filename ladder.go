// Package ladder is a full-system simulator for LADDER — the content- and
// location-aware write architecture for crossbar resistive memories of
// Chowdhuryy et al. (MICRO 2021) — together with every substrate the
// paper's evaluation depends on: an MNA-based crossbar circuit model, the
// RESET write-timing tables, a ReRAM main-memory model, a multi-channel
// memory controller with LRS-metadata management, trace-driven cores,
// synthetic SPEC/PARSEC-like workloads, dynamic energy metering and wear
// leveling.
//
// # Quick start
//
//	res, err := ladder.Run(ladder.Config{
//	    Workload: "lbm",
//	    Scheme:   ladder.SchemeHybrid,
//	})
//	fmt.Println(res.Stats.AvgWriteServiceNs())
//
// Compare schemes the way the paper's figures do:
//
//	grid, err := ladder.RunGrid(ladder.Options{Instr: 200_000},
//	    ladder.FigureSchemes())
//	for _, row := range grid.WriteServiceTime() { ... } // Figure 12
//
// Every cell of a grid starts from Options.Base, so one knob degrades a
// whole grid:
//
//	grid, err = ladder.RunGrid(ladder.Options{Instr: 200_000,
//	    Base: ladder.Config{FaultRate: 0.01, WearLeveling: true}},
//	    ladder.FigureSchemes())
//
// The heavier machinery (circuit solvers, timing tables, schemes,
// controller) lives in the internal packages; this package re-exports the
// surface a downstream user needs. The paper's figures, tables and
// sensitivity studies are declared once, as entries of
// internal/evaluation, and run with `laddersim -exp NAME`. See DESIGN.md
// for the system map and EXPERIMENTS.md for paper-vs-measured results.
package ladder

import (
	"context"

	"ladder/internal/circuit"
	"ladder/internal/core"
	"ladder/internal/reram"
	"ladder/internal/sim"
	"ladder/internal/timeline"
	"ladder/internal/timing"
	"ladder/internal/trace"
	"ladder/internal/tracing"
)

// Re-exported simulation types.
type (
	// Config describes one simulation run; the zero value of every field
	// except Workload selects the paper's defaults.
	Config = sim.Config
	// Result carries one run's measurements.
	Result = sim.Result
	// Options scopes a multi-run experiment: the grid's instruction
	// budget, seed, tables, workloads and parallelism, plus Base, the
	// Config every cell starts from. A knob such as FaultRate or
	// TimelineInterval applies to a whole grid through Base.
	Options = sim.Options
	// Grid holds per-(workload, scheme) results with figure derivations.
	Grid = sim.Grid
	// Row is one workload's series values.
	Row = sim.Row
	// EnergySplit is Figure 17's per-scheme read/write energy breakdown.
	EnergySplit = sim.EnergySplit
	// Report is one run's structured record: headline numbers plus the
	// full metrics snapshot (see docs/METRICS.md).
	Report = sim.Report
	// GridReport serializes a whole experiment grid.
	GridReport = sim.GridReport
	// BenchReport is the BENCH_*.json perf-snapshot document.
	BenchReport = sim.BenchReport
	// BenchProvenance stamps a BenchReport with the toolchain and host
	// parallelism it was measured under.
	BenchProvenance = sim.BenchProvenance
	// Timeline is a run's simulated-time telemetry: per-epoch metric
	// deltas recorded every Config.TimelineInterval cycles (see
	// docs/TIMELINE.md).
	Timeline = timeline.Timeline
	// TimelineEpoch is one closed sampling window of a Timeline.
	TimelineEpoch = timeline.Epoch
	// ProgressInfo is the periodic run-progress snapshot delivered to
	// Config.Progress.
	ProgressInfo = sim.ProgressInfo
	// GridProgress is the per-cell completion notice delivered to
	// Options.Progress during RunGrid.
	GridProgress = sim.GridProgress
	// SchemeFactory builds one controller's private write-scheme instance;
	// register one under a name with RegisterScheme.
	SchemeFactory = core.SchemeFactory
	// TraceCollector records transaction-lifecycle spans when
	// Config.TraceSample > 0 (Result.Trace); export with WriteChromeTrace
	// or WriteSlowestDigest. See docs/TRACING.md.
	TraceCollector = tracing.Collector
	// TraceSpan is one recorded transaction lifecycle.
	TraceSpan = tracing.Span
	// TraceSummary is the report-embedded accounting of a traced run.
	TraceSummary = tracing.Summary
)

// Scheme names.
const (
	SchemeBaseline   = sim.SchemeBaseline
	SchemeLocAware   = sim.SchemeLocAware
	SchemeOracle     = sim.SchemeOracle
	SchemeSplitReset = sim.SchemeSplitReset
	SchemeBLP        = sim.SchemeBLP
	SchemeBasic      = sim.SchemeBasic
	SchemeEst        = sim.SchemeEst
	SchemeEstNoShift = sim.SchemeEstNoShift
	SchemeHybrid     = sim.SchemeHybrid
)

// Run executes one simulation (see sim.Run). Runs of the same seed
// share the resident row images they draw, and runs of the same
// workload and seed their access streams too; the results are the same
// as without sharing.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// DropResidents frees the resident row images and access streams that
// recent runs, solo runs and the cells of finished grids and studies
// alike, left for later runs of the same seed (see sim.DropResidents).
func DropResidents() { sim.DropResidents() }

// NewReport freezes a run's Result into its serializable report form.
func NewReport(res *Result) *Report { return sim.NewReport(res) }

// NewGridReport freezes an experiment grid into its report form.
func NewGridReport(g *Grid) (*GridReport, error) { return sim.NewGridReport(g) }

// RunGrid simulates every workload under every scheme.
func RunGrid(opts Options, schemes []string) (*Grid, error) { return sim.RunGrid(opts, schemes) }

// RunGridCtx is RunGrid under a context: cancellation stops dispatching
// further cells and surfaces as an error.
func RunGridCtx(ctx context.Context, opts Options, schemes []string) (*Grid, error) {
	return sim.RunGridCtx(ctx, opts, schemes)
}

// RegisterScheme adds a custom write scheme to the global registry; the
// name becomes valid everywhere a built-in scheme name is (Config.Scheme,
// RunGrid scheme lists, cmd/laddersim -scheme). Registering a duplicate
// name panics. See core.RegisterScheme.
func RegisterScheme(name string, factory SchemeFactory) { core.RegisterScheme(name, factory) }

// Average appends an AVG row across workloads.
func Average(rows []Row) Row { return sim.Average(rows) }

// SchemeNames lists every supported scheme.
func SchemeNames() []string { return sim.SchemeNames() }

// FigureSchemes lists the schemes Figures 12/13/16 compare.
func FigureSchemes() []string { return sim.FigureSchemes() }

// Workloads lists all sixteen evaluation workloads (Table 3).
func Workloads() []string { return trace.AllWorkloads() }

// SingleWorkloads lists the eight single-programmed workloads.
func SingleWorkloads() []string { return append([]string(nil), trace.SingleWorkloads...) }

// Timing-model surface.
type (
	// TableSet bundles the calibrated write-timing tables.
	TableSet = timing.TableSet
	// CrossbarParams are the circuit-level crossbar parameters (Table 1).
	CrossbarParams = circuit.Params
)

// DefaultCrossbarParams returns the paper's Table 1 crossbar.
func DefaultCrossbarParams() CrossbarParams { return circuit.DefaultParams() }

// DefaultTables returns the timing tables for the default crossbar,
// decoded once per process from embedded data that is bit for bit what
// NewTables(DefaultCrossbarParams()) generates from the circuit model.
func DefaultTables() (*TableSet, error) { return timing.DefaultTableSet() }

// NewTables calibrates and generates timing tables for a custom crossbar.
func NewTables(p CrossbarParams) (*TableSet, error) { return timing.NewTableSet(p) }

// DefaultGeometry returns the paper's 16 GB memory organization.
func DefaultGeometry() reram.Geometry { return reram.DefaultGeometry() }

// MetadataOverheads reports the metadata storage cost of the three LADDER
// layouts as fractions of data capacity (Section 6.3).
func MetadataOverheads() (basic, est, hybrid float64) {
	l := core.NewLayout(reram.DefaultGeometry())
	return l.StorageOverheadBasic(), l.StorageOverheadEst(), l.StorageOverheadHybrid()
}

// ControllerOverheads reports the paper's Table 4 synthesis results for
// the LADDER controller logic (carried constants; see DESIGN.md).
func ControllerOverheads() []core.ModuleOverhead {
	return append([]core.ModuleOverhead(nil), core.Table4...)
}
