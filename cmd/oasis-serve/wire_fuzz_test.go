package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"repro/internal/ndjson"
	"repro/internal/remote"
)

// FuzzEventLineEncoding holds the append encoders to the structs the decoders
// use: a "hit" line equals json.Marshal(hitEvent) and an "h" line equals
// json.Marshal(remote.Event) byte for byte (field order, omitempty, HTML-safe
// escaping, float formatting), and a "hit" line decodes back to the event it
// was made from.  remote's FuzzDecodeEvent checks how the shard lines decode.
func FuzzEventLineEncoding(f *testing.F) {
	f.Add("q0", "SYN|B0012", 1, 55, 1.2e-7, 12)
	f.Add("", "", 0, 0, 0.0, 0)
	f.Add(`a"b`, `back\slash`, 3, 9, 1e-300, 1)
	f.Add("<script>&", "tab\there", 2, 8, 9.99e-7, 2)
	f.Add("héllo ", "\xff\xfeinvalid", 7, 1, 1e21, 3)
	f.Add("q", "s", -1, -5, 5e-324, 4)                // smallest denormal
	f.Add("q", "s", 1, 1, 2.2250738585072009e-308, 5) // largest denormal
	f.Add("q", "\x7f\x00", 1, 1, 1e-6, 6)
	f.Add("q", "s", 1, 1, 123456.789, 7)
	f.Fuzz(func(t *testing.T, queryID, seqID string, rank, score int, evalue float64, seq int) {
		if math.IsNaN(evalue) || math.IsInf(evalue, 0) {
			t.Skip("E-values are finite; JSON has no spelling for the rest")
		}
		hit := hitEvent{Type: "hit", QueryID: queryID, Rank: rank, SeqID: seqID, Score: score, EValue: evalue}
		line := ndjson.AppendHit(nil, queryID, rank, seqID, score, evalue)
		if want := marshalLine(t, hit); !bytes.Equal(line, want) {
			t.Fatalf("hit line\n got %s\nwant %s", line, want)
		}
		if utf8.ValidString(queryID) && utf8.ValidString(seqID) { // invalid UTF-8 decodes as U+FFFD
			var back hitEvent
			if err := json.Unmarshal(line, &back); err != nil || back != hit {
				t.Fatalf("hit line %s decoded to %+v (%v), want %+v", line, back, err, hit)
			}
		}

		shardHit := remote.Event{E: "h", Seq: seq, ID: seqID, Score: score}
		line = ndjson.AppendShardHit(nil, seq, seqID, score)
		if want := marshalLine(t, shardHit); !bytes.Equal(line, want) {
			t.Fatalf("h line\n got %s\nwant %s", line, want)
		}
	})
}

// marshalLine is what json.Encoder.Encode wrote before the append encoders.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}
