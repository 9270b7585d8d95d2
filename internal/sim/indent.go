package sim

import (
	"encoding/json"
	"io"
)

// IndentedJSON returns json.MarshalIndent(v, "", "  "), byte for byte, in
// one pass over the compact encoding: encoding/json's Indent re-scans
// Marshal's output through its validating state machine, which costs
// more than the marshal itself on a run report.
func IndentedJSON(v any) ([]byte, error) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return appendIndent(make([]byte, 0, 2*len(compact)), compact), nil
}

// writeJSON writes v as a json.Encoder with SetIndent("", "  ") does:
// the indented form followed by a newline, in one Write.
func writeJSON(w io.Writer, v any) error {
	b, err := IndentedJSON(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// appendIndent appends src, compact JSON as json.Marshal emits it (no
// whitespace outside strings), indented by two spaces per level the way
// json.Indent does: one member or element per line, a space after each
// colon, and empty objects and arrays kept as {} and [].
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '"':
			// Copy the string through its closing quote; a backslash
			// escapes the byte after it.
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if next := src[i+1]; next == '}' || next == ']' {
				dst = append(dst, next)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		case '}', ']':
			depth--
			dst = appendNewline(dst, depth)
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendNewline starts a new line indented to depth.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
