package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSchemeNameSpellingsRunAlike checks that a scheme name resolves the
// same machine in any case: every built-in spelled in lowercase gives
// the same report, label included, as its registered spelling.
func TestSchemeNameSpellingsRunAlike(t *testing.T) {
	schemes := append(FigureSchemes(), SchemeLocAware, SchemeEstNoShift)
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			report := func(name string) []byte {
				cfg := testConfig(t, "lbm", name)
				cfg.InstrPerCore = 20_000
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b, err := json.Marshal(NewReport(res).StripVolatile())
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			want := report(scheme)
			if got := report(strings.ToLower(scheme)); !bytes.Equal(got, want) {
				t.Errorf("%q runs differently from %q:\n got: %.300s\nwant: %.300s",
					strings.ToLower(scheme), scheme, got, want)
			}
		})
	}
}

// TestConfigRejectsOutOfRangeKnobs checks that a knob value outside its
// documented range fails the run instead of silently turning the
// feature off, and that each range's edge values still run.
func TestConfigRejectsOutOfRangeKnobs(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		// knob is the field the error must name; "" means the run must
		// succeed.
		knob string
	}{
		{"negative fault rate", func(c *Config) { c.FaultRate = -0.01 }, "FaultRate"},
		{"NaN fault rate", func(c *Config) { c.FaultRate = math.NaN() }, "FaultRate"},
		{"fault rate of 1", func(c *Config) { c.FaultRate = 1 }, "FaultRate"},
		{"infinite fault rate", func(c *Config) { c.FaultRate = math.Inf(1) }, "FaultRate"},
		{"negative trace sample", func(c *Config) { c.TraceSample = -1 }, "TraceSample"},
		{"negative trace capacity", func(c *Config) { c.TraceCapacity = -1 }, "TraceCapacity"},
		{"negative trace capacity, tracing off", func(c *Config) { c.TraceCapacity, c.TraceSample = -1, 0 }, "TraceCapacity"},
		{"shrink below 1", func(c *Config) { c.ShrinkRange = 0.5 }, "ShrinkRange"},
		{"negative shrink", func(c *Config) { c.ShrinkRange = -2 }, "ShrinkRange"},
		{"low rows below -1", func(c *Config) { c.HybridLowRows = -2 }, "HybridLowRows"},
		{"retry max below -1, faults off", func(c *Config) { c.RetryMax = -2 }, "RetryMax"},
		{"spare rows below -1, faults off", func(c *Config) { c.SpareRows = -2 }, "SpareRows"},
		{"unknown VWL mode, leveling off", func(c *Config) { c.VWLMode = "diagonal" }, "VWLMode"},
		{"unknown VWL mode, leveling on", func(c *Config) { c.VWLMode, c.WearLeveling = "diagonal", true }, "VWLMode"},
		{"NaN remap penalty", func(c *Config) { c.RemapPenaltyNs = math.NaN() }, "RemapPenaltyNs"},
		{"infinite remap penalty", func(c *Config) { c.RemapPenaltyNs = math.Inf(1) }, "RemapPenaltyNs"},
		{"negative infinite remap penalty", func(c *Config) { c.RemapPenaltyNs = math.Inf(-1) }, "RemapPenaltyNs"},
		{"zero knobs", func(c *Config) {}, ""},
		{"shrink of 1", func(c *Config) { c.ShrinkRange = 1 }, ""},
		{"fault rate just below 1", func(c *Config) { c.FaultRate = math.Nextafter(1, 0) }, ""},
		{"low rows -1", func(c *Config) { c.HybridLowRows = -1 }, ""},
		{"retry max -1", func(c *Config) { c.RetryMax = -1 }, ""},
		{"spare rows -1", func(c *Config) { c.SpareRows = -1 }, ""},
		{"line VWL mode, leveling off", func(c *Config) { c.VWLMode = "line" }, ""},
		{"negative remap penalty", func(c *Config) { c.RemapPenaltyNs = -1 }, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, "astar", SchemeHybrid)
			cfg.InstrPerCore = 2_000
			tc.edit(&cfg)
			_, err := Run(cfg)
			switch {
			case tc.knob == "" && err != nil:
				t.Fatalf("in-range knobs rejected: %v", err)
			case tc.knob != "" && err == nil:
				t.Fatalf("run accepted an out-of-range %s", tc.knob)
			case tc.knob != "" && !strings.Contains(err.Error(), tc.knob):
				t.Fatalf("error %q does not name %s", err, tc.knob)
			}
		})
	}
}
