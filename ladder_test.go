package ladder_test

import (
	"testing"

	"ladder"
	"ladder/internal/circuit"
	"ladder/internal/reram"
	"ladder/internal/timing"
)

func fastConfig(t *testing.T, workload, scheme string) ladder.Config {
	t.Helper()
	p := circuit.DefaultParams()
	p.N = 128
	ts, err := timing.NewTableSet(p)
	if err != nil {
		t.Fatal(err)
	}
	return ladder.Config{
		Workload:     workload,
		Scheme:       scheme,
		InstrPerCore: 20_000,
		Seed:         1,
		Tables:       ts,
		Geom: reram.Geometry{
			Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
			MatGroupsPerBank: 64, MatRows: 128,
		},
	}
}

func TestPublicRun(t *testing.T) {
	res, err := ladder.Run(fastConfig(t, "astar", ladder.SchemeHybrid))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != ladder.SchemeHybrid || res.AvgIPC() <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestPublicLists(t *testing.T) {
	if got := len(ladder.Workloads()); got != 16 {
		t.Fatalf("workloads = %d, want 16", got)
	}
	if got := len(ladder.SingleWorkloads()); got != 8 {
		t.Fatalf("single workloads = %d, want 8", got)
	}
	if got := len(ladder.SchemeNames()); got != 9 {
		t.Fatalf("schemes = %d, want 9", got)
	}
	if got := len(ladder.FigureSchemes()); got != 7 {
		t.Fatalf("figure schemes = %d, want 7", got)
	}
}

func TestPublicOverheads(t *testing.T) {
	basic, est, hybrid := ladder.MetadataOverheads()
	if !(hybrid < est && est < basic) {
		t.Fatalf("overhead ordering broken: %v %v %v", basic, est, hybrid)
	}
	if mods := ladder.ControllerOverheads(); len(mods) != 3 {
		t.Fatalf("controller overheads = %d entries", len(mods))
	}
}

func TestPublicGeometryAndParams(t *testing.T) {
	if got := ladder.DefaultGeometry().Lines() * reram.BlockSize; got != 16<<30 {
		t.Fatalf("capacity = %d", got)
	}
	p := ladder.DefaultCrossbarParams()
	if p.N != 512 || p.Nonlinearity != 200 {
		t.Fatalf("unexpected crossbar params %+v", p)
	}
}
