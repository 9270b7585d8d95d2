package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestAppendStringMatchesEncodingJSON checks every one- and two-byte
// string, and a few longer ones, against encoding/json.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
		check(string([]byte{byte(a)}))
	}
	for _, s := range []string{"", "memctrl.ch0.reset_latency_ns", "line sep ", "é", "\xe2\x80", "<&>"} {
		check(s)
	}
}

// tree builds nested maps and slices depth levels deep, with empty and
// nil containers along the way.
func tree(depth int) map[string]any {
	m := map[string]any{"empty": map[string]any{}, "none": []any{}, "nil": nil, "x": 1.5}
	if depth > 0 {
		m["child"] = []any{tree(depth - 1), []any{}, map[string]any{}}
	}
	return m
}

// appendAny encodes the values tree builds through the Encoder.
func appendAny(e *Encoder, v any) {
	switch v := v.(type) {
	case map[string]any:
		Map(e, nil, v, appendAnyValue)
	case []any:
		e.Open('[')
		for _, x := range v {
			appendAny(e.Elem(), x)
		}
		e.Close(']')
	case float64:
		e.Float(v)
	case nil:
		e.Null()
	}
}

func appendAnyValue(v any, e *Encoder) { appendAny(e, v) }

// TestEncoderMatchesMarshalIndent compares nested documents, past the
// depth the indentation string covers, with json.MarshalIndent.
func TestEncoderMatchesMarshalIndent(t *testing.T) {
	for _, depth := range []int{0, 1, 5, 40} {
		doc := tree(depth)
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(func(e *Encoder) { appendAny(e, doc) })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("depth %d: encoder differs from json.MarshalIndent (%v)", depth, err)
		}
		var w bytes.Buffer
		if err := Write(&w, func(e *Encoder) { appendAny(e, doc) }); err != nil || w.String() != string(want)+"\n" {
			t.Fatalf("depth %d: Write differs from MarshalIndent and a newline (%v)", depth, err)
		}
	}
}

// TestNonFiniteFloatsFail checks that NaN and ±Inf fail the document
// with encoding/json's message and that Write then writes nothing.
func TestNonFiniteFloatsFail(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		for name, doc := range map[string]func(*Encoder){
			"Float":  func(e *Encoder) { e.Float(f) },
			"Floats": func(e *Encoder) { e.Floats([]float64{1, f}) },
		} {
			var w bytes.Buffer
			err := Write(&w, doc)
			if err == nil || err.Error() != want.Error() || w.Len() > 0 {
				t.Errorf("%s(%v): error %v after %d bytes, want %v before any", name, f, err, w.Len(), want)
			}
			if _, err := Marshal(doc); err == nil {
				t.Errorf("%s(%v): Marshal succeeded", name, f)
			}
		}
	}
	if !strings.Contains(string(AppendFloat(nil, 1e21)), "e+21") {
		t.Error("1e21 is not in exponent form")
	}
}

// TestConcurrentWrites encodes different documents from several
// goroutines at once: each must get its own recycled buffer.
func TestConcurrentWrites(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc := tree(g)
			want, _ := json.MarshalIndent(doc, "", "  ")
			for i := 0; i < 200; i++ {
				var w bytes.Buffer
				if err := Write(&w, func(e *Encoder) { appendAny(e, doc) }); err != nil || w.String() != string(want)+"\n" {
					t.Errorf("goroutine %d, write %d: wrong document (%v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
