// Package jsonenc appends JSON documents straight into one buffer, with
// no reflection and no separate indent pass. A type encodes itself by
// calling the Encoder in its struct-field order, and the bytes are
// exactly those of json.MarshalIndent(v, "", "  ") on the same value:
// one member or element per line, two spaces per level, a space after
// each colon, empty objects and arrays kept as {} and [], nil maps and
// slices as null, strings escaped as encoding/json escapes them (HTML
// characters included) and floats in its format. The run, grid and
// bench reports, the timeline export and the Chrome trace share these
// formatters.
package jsonenc

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Encoder appends one indented JSON document. Keys and values are
// written in call order: Open and Close bracket an object or array,
// Key starts an object member and Elem an array element, and the
// scalar methods write one value. A non-finite float fails the
// document: Write and Marshal then return its error and write nothing.
type Encoder struct {
	buf   []byte
	depth int
	// empty is set while the innermost open container has no member or
	// element yet.
	empty bool
	err   error
}

// indent is a newline and the spaces of 32 levels; newline slices it,
// and only deeper lines append the rest two spaces at a time.
var indent = "\n" + strings.Repeat("  ", 32)

// appendNewline starts a line indented to depth.
func appendNewline(b []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indent) {
		return append(b, indent[:n]...)
	}
	b = append(b, indent...)
	for d := (len(indent) - 1) / 2; d < depth; d++ {
		b = append(b, ' ', ' ')
	}
	return b
}

// next separates the next member or element from the previous one and
// starts its line.
func (e *Encoder) next() {
	b := e.buf
	if !e.empty {
		b = append(b, ',')
	}
	e.empty = false
	e.buf = appendNewline(b, e.depth)
}

// Open starts an object ('{') or an array ('[').
func (e *Encoder) Open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

// Close ends the innermost object ('}') or array (']').
func (e *Encoder) Close(c byte) {
	e.depth--
	b := e.buf
	if !e.empty {
		b = appendNewline(b, e.depth)
	}
	e.buf = append(b, c)
	e.empty = false
}

// Key starts an object member named by a struct field's JSON name:
// the separator, the quoted name and its colon. Field names are
// constants of plain ASCII, so they are copied without an escape check;
// Map escapes the member names it takes from map keys. Key returns e so
// the value can follow on the same line.
func (e *Encoder) Key(field string) *Encoder {
	e.next()
	b := append(e.buf, '"')
	b = append(b, field...)
	e.buf = append(b, '"', ':', ' ')
	return e
}

// Elem starts an array element.
func (e *Encoder) Elem() *Encoder {
	e.next()
	return e
}

// String writes a string value.
func (e *Encoder) String(s string) { e.buf = appendString(e.buf, s) }

// Uint writes an unsigned integer.
func (e *Encoder) Uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// Int writes a signed integer.
func (e *Encoder) Int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// Bool writes true or false.
func (e *Encoder) Bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// Null writes null, the encoding of a nil map, slice or pointer.
func (e *Encoder) Null() { e.buf = append(e.buf, "null"...) }

// Float writes f in encoding/json's format. NaN and ±Inf have no JSON
// encoding: the first one fails the document with encoding/json's
// message and writes 0 in its place.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		f = 0
	}
	e.buf = AppendFloat(e.buf, f)
}

// array writes s as an array of values appended by appendValue, or null
// when s is nil, in one pass over a local buffer.
func array[T any](e *Encoder, s []T, appendValue func([]byte, T) []byte) {
	switch {
	case s == nil:
		e.Null()
		return
	case len(s) == 0:
		e.buf = append(e.buf, '[', ']')
		return
	}
	b := append(e.buf, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendValue(appendNewline(b, e.depth+1), v)
	}
	e.buf = append(appendNewline(b, e.depth), ']')
	e.empty = false
}

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }
func appendInt(b []byte, v int) []byte     { return strconv.AppendInt(b, int64(v), 10) }

// Uints writes a []uint64 as an array (null when nil).
func (e *Encoder) Uints(s []uint64) { array(e, s, appendUint) }

// Ints writes an []int as an array (null when nil).
func (e *Encoder) Ints(s []int) { array(e, s, appendInt) }

// Floats writes a []float64 as an array (null when nil).
func (e *Encoder) Floats(s []float64) {
	for _, f := range s {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			e.Float(f) // fails the document
			return
		}
	}
	array(e, s, AppendFloat)
}

// Strings writes a []string as an array (null when nil).
func (e *Encoder) Strings(s []string) { array(e, s, appendString) }

// Map writes m as an object of its members in sorted-key order, each
// value written by appendValue, or null when m is nil. keys is scratch
// space for the sorted keys; Map returns it for the next map.
func Map[V any](e *Encoder, keys []string, m map[string]V, appendValue func(V, *Encoder)) []string {
	if m == nil {
		e.Null()
		return keys
	}
	keys = SortedKeys(keys, m)
	e.Open('{')
	for _, k := range keys {
		e.next()
		e.buf = append(appendString(e.buf, k), ':', ' ')
		appendValue(m[k], e)
	}
	e.Close('}')
	return keys
}

// UintValue and FloatValue are Map's value writers for maps of uint64
// and float64.
func UintValue(v uint64, e *Encoder) { e.Uint(v) }

// FloatValue writes a float64 map member; see UintValue.
func FloatValue(v float64, e *Encoder) { e.Float(v) }

// SortedKeys returns m's keys in ascending order, the order
// encoding/json writes map members in, reusing the storage of keys.
func SortedKeys[V any](keys []string, m map[string]V) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encoders recycles document buffers between writes; a report's buffer
// is reused by the next report instead of growing again from empty.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// maxPooled caps the buffer a recycled Encoder keeps, so one very large
// document does not pin its buffer for the process's lifetime.
const maxPooled = 4 << 20

// Write encodes one document with appendDoc and writes it, followed by
// a newline, in one Write: what a json.Encoder with SetIndent("", "  ")
// writes. A document that fails to encode writes nothing.
func Write(w io.Writer, appendDoc func(*Encoder)) error {
	e := encoders.Get().(*Encoder)
	*e = Encoder{buf: e.buf[:0]}
	appendDoc(e)
	err := e.err
	if err == nil {
		_, err = w.Write(append(e.buf, '\n'))
	}
	if cap(e.buf) <= maxPooled {
		encoders.Put(e)
	}
	return err
}

// Marshal returns the document appendDoc encodes, without a trailing
// newline: json.MarshalIndent's bytes.
func Marshal(appendDoc func(*Encoder)) ([]byte, error) {
	var e Encoder
	appendDoc(&e)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// AppendFloat appends f as encoding/json formats a float64: the
// shortest decimal in 'f' form, or in 'e' form below 1e-6 and from 1e21
// up, with a one-digit negative exponent unpadded (1e-07 becomes 1e-7).
// f must be finite.
func AppendFloat(b []byte, f float64) []byte {
	// An integer below 2^53 is its own shortest decimal, so integral
	// values (bucket bounds, counts, whole nanoseconds) skip the
	// shortest-digit search; -0 keeps its sign below.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plain marks the bytes encoding/json copies into a string unescaped:
// printable ASCII and DEL, other than the quote, the backslash and the
// HTML characters <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes it. Strings of plain bytes (every instrument
// name, label and schema string) are copied as they are; any other
// string is handed to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
