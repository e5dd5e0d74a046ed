package ndjson

import (
	"encoding/json"
	"math"
	"strconv"
)

// The three encoders below produce the lines that make up all but the last
// event of a stream.  Their output is byte-identical to encoding/json over
// the structs the decoders use (cmd/oasis-serve's hitEvent, remote.Event):
// field order, omitempty, HTML-safe string escaping and float formatting —
// FuzzEventLineEncoding in cmd/oasis-serve holds them to it.  The
// coordinator reads the "h" and "b" shapes back by hand (remote.decodeEvent,
// held to encoding/json by FuzzDecodeEvent).  Everything else (done and error
// lines) goes through AppendJSON.

// AppendHit appends one /search or /batch "hit" line:
//
//	{"type":"hit","query_id":"q0","rank":1,"seq_id":"SYN|B0012","score":55,"evalue":1.2e-7}
//
// Zero-valued fields after type are omitted, as hitEvent's omitempty tags do.
// evalue must be finite (KarlinAltschul.EValue always is).
//
//oasis:hotpath
func AppendHit(dst []byte, queryID string, rank int, seqID string, score int, evalue float64) []byte {
	dst = lit(dst, `{"type":"hit"`)
	if queryID != "" {
		dst = lit(dst, `,"query_id":`)
		dst = appendString(dst, queryID)
	}
	if rank != 0 {
		dst = lit(dst, `,"rank":`)
		dst = strconv.AppendInt(dst, int64(rank), 10)
	}
	if seqID != "" {
		dst = lit(dst, `,"seq_id":`)
		dst = appendString(dst, seqID)
	}
	if score != 0 {
		dst = lit(dst, `,"score":`)
		dst = strconv.AppendInt(dst, int64(score), 10)
	}
	if evalue != 0 {
		dst = lit(dst, `,"evalue":`)
		dst = appendFloat(dst, evalue)
	}
	return lit(dst, "}\n")
}

// AppendShardHit appends one shard-stream "h" line:
//
//	{"e":"h","seq":12,"id":"SYN|B0012","score":55}
//
// seq and score are always present (sequence 0 is a real hit); id is omitted
// when empty.
//
//oasis:hotpath
func AppendShardHit(dst []byte, seq int, id string, score int) []byte {
	dst = lit(dst, `{"e":"h","seq":`)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	if id != "" {
		dst = lit(dst, `,"id":`)
		dst = appendString(dst, id)
	}
	dst = lit(dst, `,"score":`)
	dst = strconv.AppendInt(dst, int64(score), 10)
	return lit(dst, "}\n")
}

// AppendShardBound appends one shard-stream "b" line, always with its value:
//
//	{"e":"b","v":57}
//
//oasis:hotpath
func AppendShardBound(dst []byte, v int) []byte {
	dst = lit(dst, `{"e":"b","v":`)
	dst = strconv.AppendInt(dst, int64(v), 10)
	return lit(dst, "}\n")
}

// lit appends a literal fragment; the caller's line buffer, reused for the
// whole stream, grows amortized.
//
//oasis:hotpath
func lit(dst []byte, s string) []byte {
	return append(dst, s...)
}

// AppendJSON appends v as one line through encoding/json: the path for done
// and error events, one per query.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// appendString appends s as a JSON string.  Printable ASCII without the
// characters encoding/json escapes (quote, backslash and the HTML-sensitive
// <, >, &) is copied between quotes; anything else takes the encoding/json
// path, which also settles invalid UTF-8 and U+2028/U+2029; boxing s for
// that path is the function's one allocation besides buffer growth.
//
//oasis:hotpath
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(dst, s)
		}
	}
	return lit(lit(lit(dst, `"`), s), `"`)
}

// appendEscaped is appendString's slow path.  Marshalling a string cannot
// fail.
func appendEscaped(dst []byte, s string) []byte {
	b, _ := json.Marshal(s)
	return append(dst, b...)
}

// appendFloat appends f exactly as encoding/json renders a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 up, and a
// two-digit exponent's leading zero dropped (e-07 -> e-7).
//
//oasis:hotpath
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
