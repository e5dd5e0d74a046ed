package ndjson

import "testing"

// TestLineShapes pins the three hot line shapes as literals: this is the wire
// format the documentation promises, independent of any struct's tags.
func TestLineShapes(t *testing.T) {
	for _, c := range []struct{ name, got, want string }{
		{"hit", string(AppendHit(nil, "q0", 1, "SYN|B0012", 55, 1.2e-7)),
			`{"type":"hit","query_id":"q0","rank":1,"seq_id":"SYN|B0012","score":55,"evalue":1.2e-7}` + "\n"},
		{"hit, zero fields omitted", string(AppendHit(nil, "", 0, "", 0, 0)),
			`{"type":"hit"}` + "\n"},
		{"hit, escaped id", string(AppendHit(nil, "a<b", 2, `x"y`, 7, 0.5)),
			`{"type":"hit","query_id":"a\u003cb","rank":2,"seq_id":"x\"y","score":7,"evalue":0.5}` + "\n"},
		{"shard hit", string(AppendShardHit(nil, 12, "SYN|B0012", 55)),
			`{"e":"h","seq":12,"id":"SYN|B0012","score":55}` + "\n"},
		{"shard hit, sequence 0", string(AppendShardHit(nil, 0, "", 0)),
			`{"e":"h","seq":0,"score":0}` + "\n"},
		{"bound", string(AppendShardBound(nil, 57)), `{"e":"b","v":57}` + "\n"},
		{"bound of 0 keeps v", string(AppendShardBound(nil, 0)), `{"e":"b","v":0}` + "\n"},
		{"negative bound", string(AppendShardBound(nil, -3)), `{"e":"b","v":-3}` + "\n"},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}
