package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOut runs the command in-process with args and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// reliabilityValues returns every value cell of the printed reliability
// table, AVG row included, which must have rows of n values.
func reliabilityValues(t *testing.T, out string, n int) []string {
	t.Helper()
	var vals []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == n+1 && f[0] != "workload" {
			vals = append(vals, f[1:]...)
		}
	}
	if len(vals) != 4*n {
		t.Fatalf("expected 4 rows of %d values in the reliability table, got %d values:\n%s", n, len(vals), out)
	}
	return vals
}

// TestReliabilityRetryMaxZero: -retry-max 0 disables program-and-verify
// reissues, so the reliability study reports zero retries everywhere.
// The flag used to reach Options unmapped, where 0 means "default".
func TestReliabilityRetryMaxZero(t *testing.T) {
	retried := false
	for _, v := range reliabilityValues(t, runOut(t, "-exp", "reliability", "-instr", "20000", "-jobs", "2"), 6) {
		retried = retried || v != "0.000"
	}
	if !retried {
		t.Fatal("the default reliability study took no retries; the test cannot tell -retry-max 0 apart")
	}
	for _, v := range reliabilityValues(t, runOut(t, "-exp", "reliability", "-instr", "20000", "-jobs", "2", "-retry-max", "0"), 6) {
		if v != "0.000" {
			t.Fatalf("-retry-max 0 reported %s retries per kwrite, want 0", v)
		}
	}
}

// TestReliabilityFaultRate: under -exp reliability, -fault-rate replaces
// the sweep's default rates with that one rate.
func TestReliabilityFaultRate(t *testing.T) {
	out := runOut(t, "-exp", "reliability", "-instr", "5000", "-jobs", "2", "-fault-rate", "0.02")
	reliabilityValues(t, out, 3)
	if !strings.Contains(out, "LADDER-Est@0.02") || strings.Contains(out, "@0.001") {
		t.Fatalf("-fault-rate 0.02 did not replace the default rates:\n%s", out)
	}
}

// TestUnknownExperiment: an -exp name that names no experiment fails the
// command and lists the known names. It used to print nothing and exit 0.
func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "fig99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "fig12") || !strings.Contains(err.Error(), "lowrows") {
		t.Fatalf("-exp fig99: error %v, want one listing the known experiments", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-exp fig99 printed %q", out.String())
	}
}

// TestReportNeedsGridUpFront: -report and -timeline-out are checked
// against the selected experiments before any cell runs, so a study with
// no grid fails at once, printing no table and writing no file. The
// check used to run after the whole study.
func TestReportNeedsGridUpFront(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-exp", "crash", "-report", filepath.Join(dir, "r.json")},
		{"-exp", "lifetime", "-timeline-interval", "1000", "-timeline-out", filepath.Join(dir, "t.json")},
	} {
		var out strings.Builder
		err := run(context.Background(), append(args, "-instr", "5000"), &out)
		if err == nil || !strings.Contains(err.Error(), "need a grid experiment") {
			t.Errorf("%v: error %v, want a missing-grid error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v ran before failing:\n%s", args, out.String())
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("wrote %d files", len(files))
	}
}

// failsBeforeOutput runs the command under a canceled context (so a
// check that lets a mode start cannot block) and requires an error
// naming want with nothing printed and no file written to dir.
func failsBeforeOutput(t *testing.T, dir string, args []string, want string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, args, &out)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%v: error %v, want one naming %s", args, err, want)
	}
	if out.Len() != 0 {
		t.Errorf("%v printed before failing:\n%s", args, out.String())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%v wrote %d files", args, len(files))
	}
}

// TestExpRejectsSingleRunFlags: a flag only a single run honours is an
// error alongside -exp, before any table prints, not silently ignored.
func TestExpRejectsSingleRunFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ flag, value string }{
		{"-workload", "mcf"},
		{"-scheme", "baseline"},
		{"-trace", filepath.Join(dir, "in.trace")},
		{"-trace-out", filepath.Join(dir, "trace.json")},
		{"-trace-slowest", "5"},
		{"-bench", filepath.Join(dir, "bench.json")},
		{"-metrics", "true"},
		{"-serve", "true"},
	} {
		t.Run(c.flag, func(t *testing.T) {
			failsBeforeOutput(t, dir, []string{"-exp", "table4", "-http", "127.0.0.1:0", c.flag + "=" + c.value}, c.flag)
		})
	}
}

// TestSingleRunRejectsExpFlags: a flag only -exp honours is an error
// without -exp, before the run starts, not silently ignored.
func TestSingleRunRejectsExpFlags(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range []string{"-gap-periods", "-spare-grid"} {
		failsBeforeOutput(t, dir, []string{"-workload", "lbm", "-instr", "5000", "-report", filepath.Join(dir, "run.json"), flag + "=16"}, flag)
	}
}

// TestExpChecksFlagsUpFront: an out-of-range simulation knob or lifetime
// axis fails -exp all before its first table prints, though the
// experiments that read it run last.
func TestExpChecksFlagsUpFront(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fault-rate", "1"}, "FaultRate"},
		{[]string{"-retry-max", "-1"}, "-retry-max"},
		{[]string{"-jobs", "-1"}, "Jobs"},
		{[]string{"-gap-periods", "64,0"}, "gap period"},
		{[]string{"-spare-grid", "16,16"}, "spare-pool size"},
	} {
		failsBeforeOutput(t, dir, append([]string{"-exp", "all", "-instr", "5000"}, c.args...), c.want)
	}
}

// TestSingleRun: without -exp the command runs one workload and writes
// its report.
func TestSingleRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	out := runOut(t, "-workload", "astar", "-scheme", "ladder-est", "-instr", "5000", "-report", path)
	for _, want := range []string{"workload            astar\n", "scheme              LADDER-Est\n", "report written      " + path} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("report %s: %v", path, err)
	}
}
