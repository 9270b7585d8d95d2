package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMain runs the command in-process with args and returns its stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, osArgs }()
	os.Stdout, os.Args = out, append([]string{"experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// reliabilityValues returns every value cell of the printed reliability
// table, AVG row included.
func reliabilityValues(t *testing.T, out string) []string {
	t.Helper()
	var vals []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[0] != "workload" {
			vals = append(vals, f[1:]...)
		}
	}
	if len(vals) != 4*6 {
		t.Fatalf("expected 4 rows of 6 values in the reliability table, got %d values:\n%s", len(vals), out)
	}
	return vals
}

// TestReliabilityRetryMaxZero: -retry-max 0 disables program-and-verify
// reissues, so the reliability study reports zero retries everywhere.
// The flag used to reach Options unmapped, where 0 means "default".
func TestReliabilityRetryMaxZero(t *testing.T) {
	retried := false
	for _, v := range reliabilityValues(t, runMain(t, "-exp", "reliability", "-instr", "20000", "-jobs", "2")) {
		retried = retried || v != "0.000"
	}
	if !retried {
		t.Fatal("the default reliability study took no retries; the test cannot tell -retry-max 0 apart")
	}
	for _, v := range reliabilityValues(t, runMain(t, "-exp", "reliability", "-instr", "20000", "-jobs", "2", "-retry-max", "0")) {
		if v != "0.000" {
			t.Fatalf("-retry-max 0 reported %s retries per kwrite, want 0", v)
		}
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
