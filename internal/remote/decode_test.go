package remote

import (
	"encoding/json"
	"testing"
	"unicode/utf8"

	"repro/internal/ndjson"
)

// FuzzDecodeEvent holds decodeEvent to encoding/json.  For any bytes, a line
// the hand path accepts must be one json.Unmarshal decodes to the identical
// Event; and every line the server's encoders write — and the older struct
// spelling of a bound — must decode to the event it was made from, through
// the hand path whenever the id needs no escaping.
func FuzzDecodeEvent(f *testing.F) {
	for _, line := range []string{
		`{"e":"h","seq":12,"id":"SYN|B0012","score":55}` + "\n",
		`{"e":"h","seq":12,"id":"SYN|B0012","score":55,"qe":13,"te":118}` + "\n",
		`{"e":"h","seq":0,"score":0}` + "\n",
		`{"e":"b","v":57}` + "\n",
		`{"e":"b","v":0}` + "\n",
		`{"e":"b","v":-3}` + "\n",
		`{"e":"b","v":-0}`,
		`{"e":"h","seq":1,"score":10,}`,
		`{"e":"h","seq":01,"score":1}`,
		`{"e":"h","seq":9223372036854775807,"score":-9223372036854775808}`,
		`{"e":"h","seq":9223372036854775808,"score":1}`,
		`{"e":"b","v":9999999999999999999}`,
		`{"e":"h","seq":3,"id":"x\"y<","score":7}`,
		`{"e":"b","seq":0,"score":0}`,
		`{"e":"d","stats":{"Columns":4}}`,
	} {
		f.Add([]byte(line), 12, "SYN|B0012", 55, 57)
	}
	f.Add([]byte(`{"e":"b","v":1}`+"\r\n"), 0, "", 0, 0)
	f.Add([]byte(`{}`), -1, `back\slash`, -5, -1)
	f.Add([]byte(`{"e":"h","seq":2,"id":"tab	here","score":1}`), 1<<62, "\xff\xfeinvalid", 1, 1<<40)
	f.Fuzz(func(t *testing.T, line []byte, seq int, id string, score, bound int) {
		if ev, ok := decodeHot(line); ok {
			var want Event
			if err := json.Unmarshal(line, &want); err != nil || ev != want {
				t.Fatalf("hand path read %q as %+v; encoding/json: %+v (%v)", line, ev, want, err)
			}
		}

		if utf8.ValidString(id) { // invalid UTF-8 decodes as U+FFFD
			hit := Event{E: "h", Seq: seq, ID: id, Score: score}
			line := ndjson.AppendShardHit(nil, seq, id, score)
			if ev, err := decodeEvent(line); err != nil || ev != hit {
				t.Fatalf("h line %s decoded to %+v (%v), want %+v", line, ev, err, hit)
			}
			if _, ok := decodeHot(line); !ok && plainID(id) {
				t.Fatalf("h line %s left the hand path", line)
			}
		}

		b := Event{E: "b", V: bound}
		for _, spelling := range [][]byte{ndjson.AppendShardBound(nil, bound), mustMarshal(t, b)} {
			if ev, err := decodeEvent(spelling); err != nil || ev != b {
				t.Fatalf("b line %s decoded to %+v (%v), want bound %d", spelling, ev, err, bound)
			}
		}
		if _, ok := decodeHot(ndjson.AppendShardBound(nil, bound)); !ok {
			t.Fatalf("b line for %d left the hand path", bound)
		}
	})
}

// TestOlderServerHitLine: an older shard server's hit line carries the
// alignment endpoints "qe" and "te".  It leaves the hand path and decodes
// through encoding/json, which skips the two keys, so mixed-version replica
// sets keep working.
func TestOlderServerHitLine(t *testing.T) {
	line := []byte(`{"e":"h","seq":12,"id":"SYN|B0012","score":55,"qe":13,"te":118}` + "\n")
	if ev, ok := decodeHot(line); ok {
		t.Errorf("hand path accepted %q as %+v", line, ev)
	}
	want := Event{E: "h", Seq: 12, ID: "SYN|B0012", Score: 55}
	if ev, err := decodeEvent(line); err != nil || ev != want {
		t.Errorf("%q decoded to %+v (%v), want %+v", line, ev, err, want)
	}
}

// plainID reports whether the encoders write id between quotes unescaped.
func plainID(id string) bool {
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkDecodeEvent compares the hand path with the encoding/json decode
// it replaced, on the two line shapes that make up a stream.
func BenchmarkDecodeEvent(b *testing.B) {
	for _, c := range []struct {
		name string
		line []byte
	}{
		{"hit", ndjson.AppendShardHit(nil, 12, "SYN|B0012", 55)},
		{"bound", ndjson.AppendShardBound(nil, 57)},
	} {
		b.Run(c.name+"/hand", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeEvent(c.line); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var ev Event
				if err := json.Unmarshal(c.line, &ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
