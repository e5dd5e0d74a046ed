package remote

import (
	"encoding/json"
	"math"
)

// decodeEvent decodes one shard-stream line.  The two shapes the server
// writes for all but the last event of a stream — exactly as
// ndjson.AppendShardHit and ndjson.AppendShardBound spell them — are parsed by
// hand (decodeHot); every other line, and any hot-shaped line decodeHot is
// not certain of, goes through encoding/json.  decodeHot accepts only lines
// json.Unmarshal decodes to the identical Event (FuzzDecodeEvent holds it to
// that), so the two paths never disagree.
func decodeEvent(line []byte) (Event, error) {
	if ev, ok := decodeHot(line); ok {
		return ev, nil
	}
	var ev Event
	err := json.Unmarshal(line, &ev)
	return ev, err
}

// decodeHot parses {"e":"b","v":N} and {"e":"h","seq":N[,"id":"…"],"score":N},
// each closed by "}" and an optional newline.  An id must be printable ASCII without '"' or
// '\' (anything else may be escaped); it is the one allocation.  ok is false
// for any other line, valid JSON or not.
//
//oasis:hotpath
func decodeHot(line []byte) (ev Event, ok bool) {
	if rest, ok := cutPrefix(line, `{"e":"b","v":`); ok {
		ev.E = "b"
		ev.V, rest, ok = cutInt(rest)
		return ev, ok && isEnd(rest)
	}
	rest, ok := cutPrefix(line, `{"e":"h","seq":`)
	if !ok {
		return ev, false
	}
	ev.E = "h"
	if ev.Seq, rest, ok = cutInt(rest); !ok {
		return ev, false
	}
	if r, found := cutPrefix(rest, `,"id":"`); found {
		if ev.ID, rest, ok = cutString(r); !ok {
			return ev, false
		}
	}
	if rest, ok = cutPrefix(rest, `,"score":`); !ok {
		return ev, false
	}
	if ev.Score, rest, ok = cutInt(rest); !ok {
		return ev, false
	}
	return ev, isEnd(rest)
}

// cutString reads a JSON string's body through its closing quote, accepting
// only printable ASCII without a backslash: bytes encoding/json copies as
// they are.
func cutString(b []byte) (string, []byte, bool) {
	for i, c := range b {
		if c == '"' {
			return string(b[:i]), b[i+1:], true
		}
		if c < ' ' || c > '~' || c == '\\' {
			break
		}
	}
	return "", b, false
}

// cutPrefix is bytes.CutPrefix for a literal prefix, split so the compiler
// proves both slicings in bounds (the escape gate counts bounds checks).
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) {
		return b, false
	}
	head, tail := b[:len(prefix)], b[len(prefix):]
	if string(head) != prefix {
		return b, false
	}
	return tail, true
}

// cutInt parses the JSON integer that starts b and returns the rest: an
// optional minus, then 0 or a digit run without a leading zero, within int's
// range.  What follows the digits is the caller's to check.
func cutInt(b []byte) (int, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 19 || (n > 1 && b[0] == '0') {
		return 0, b, false
	}
	var u uint64 // 19 digits cannot overflow it
	for _, c := range b[:n] {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > math.MaxInt+1 {
			return 0, b, false
		}
		return int(-u), b[n:], true
	}
	if u > math.MaxInt {
		return 0, b, false
	}
	return int(u), b[n:], true
}

// isEnd reports whether rest closes the object and, optionally, the line.
func isEnd(rest []byte) bool {
	return string(rest) == "}" || string(rest) == "}\n"
}
