package timing

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ladder/internal/circuit"
)

var updateTables = flag.Bool("update", false, "rewrite tableset_default.txt from the current generator")

// goldenTableSet renders every number of a table set in the form
// defaultTables embeds: the hex of its IEEE-754 bits, one labelled value
// a line, so any bit change in any entry shows up as a diff.
func goldenTableSet(ts *TableSet) []byte {
	var b bytes.Buffer
	labels, vals := tableSetFields(ts)
	for i, l := range labels {
		fmt.Fprintf(&b, "%s %016x\n", l, math.Float64bits(*vals[i]))
	}
	return b.Bytes()
}

// oneProc is the default table set generated at GOMAXPROCS 1, once per
// test binary: TestTableSetGolden compares its text with the embedded
// file and TestDefaultTableSetIsGenerated its every field with the
// decoded set. Neither modifies it.
var oneProc struct {
	once sync.Once
	ts   *TableSet
	err  error
}

func generatedOneProc() (*TableSet, error) {
	oneProc.once.Do(func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		oneProc.ts, oneProc.err = NewTableSet(circuit.DefaultParams())
	})
	return oneProc.ts, oneProc.err
}

// TestTableSetGolden pins the paper's Table 1 table set bit for bit, at
// one and at several worker goroutines: the generator must reproduce the
// embedded tables every run loads (DefaultTableSet), which feed every
// cycle-identical simulation golden. It may get faster but must not
// change a single bit. A deliberate change regenerates the file with:
// go test ./internal/timing -run TableSetGolden -update
func TestTableSetGolden(t *testing.T) {
	const path = "tableset_default.txt"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			ts, err := generatedOneProc()
			if procs != 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ts, err = NewTableSet(circuit.DefaultParams())
			}
			if err != nil {
				t.Fatal(err)
			}
			got := goldenTableSet(ts)
			if *updateTables {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := []byte(defaultTables)
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("table set differs from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("table set differs from %s: %d lines, want %d", path, len(gl), len(wl))
		})
	}
}

// TestDefaultTableSetIsGenerated requires the decoded default tables to
// equal a fresh generation in every field, including those the text
// form leaves out (the model's clamps, each table's granularity and
// content axis).
func TestDefaultTableSetIsGenerated(t *testing.T) {
	got, err := DefaultTableSet()
	if err != nil {
		t.Fatal(err)
	}
	want, err := generatedOneProc()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultTableSet differs from NewTableSet(circuit.DefaultParams()):\n got: %+v\nwant: %+v", *got, *want)
	}
}

// TestDecodeTableSetRejectsDamage checks that a truncated, relabelled or
// corrupted text fails to decode instead of yielding a partial set.
func TestDecodeTableSetRejectsDamage(t *testing.T) {
	n := circuit.DefaultParams().N
	if _, err := decodeTableSet(defaultTables, n); err != nil {
		t.Fatalf("embedded tables do not decode: %v", err)
	}
	lines := strings.SplitAfter(defaultTables, "\n")
	for name, text := range map[string]string{
		"empty":     "",
		"truncated": strings.Join(lines[:len(lines)-2], ""),
		"relabel":   strings.Replace(defaultTables, "BL[0][0][0]", "WL[0][0][0]", 1),
		"bad hex":   strings.Replace(defaultTables, "Model.K 4", "Model.K z", 1),
		"no value":  strings.Replace(defaultTables, "WorstNs ", "WorstNs", 1),
	} {
		if _, err := decodeTableSet(text, n); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
