package corpus

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// A labeled record is one line of a labeled-corpus JSONL file: the export of
// a discovery session and the output of a labeling job. It is the bytes
// json.NewEncoder(w).Encode writes for
//
//	struct {
//		ID    int      `json:"id"`
//		Text  string   `json:"text"`
//		Label int      `json:"label"`
//		Prob  *float64 `json:"prob,omitempty"`
//	}
//
// newline included, split in two: the head {"id":N,"text":"…" depends only
// on the sentence, and the tail ,"label":L[,"prob":P]}\n only on the label
// and probability, so a writer can cache either half.

// AppendRecordHead appends the head {"id":id,"text":"…" of a labeled record.
func AppendRecordHead(dst []byte, id int, text string) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, `,"text":`...)
	return appendJSONString(dst, text)
}

// AppendRecordTail appends the tail ,"label":label[,"prob":prob]}\n of a
// labeled record; a nil prob leaves the field out. A non-finite probability
// is an error, as it is for encoding/json.
func AppendRecordTail(dst []byte, label int, prob *float64) ([]byte, error) {
	dst = append(dst, `,"label":`...)
	dst = strconv.AppendInt(dst, int64(label), 10)
	if prob != nil {
		p := *prob
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return dst, fmt.Errorf("unsupported probability %v", p)
		}
		dst = append(dst, `,"prob":`...)
		dst = appendJSONFloat(dst, p)
	}
	return append(dst, '}', '\n'), nil
}

// appendJSONString appends s as a JSON string the way encoding/json's
// Encoder does with its default HTML escaping: quote and backslash get a
// backslash; \b, \f, \n, \r and \t their short forms; other control bytes
// and <, > and & a \u00XX escape; invalid UTF-8 becomes \ufffd, and U+2028
// and U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends the finite f the way encoding/json does: the
// shortest decimal that round-trips, in 'f' form unless 0 < |f| < 1e-6 or
// |f| >= 1e21, which use 'e' form with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
