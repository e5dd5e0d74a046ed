package main

import "testing"

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: must be rejected
	}{
		{"all", experimentNames},
		{"space", []string{"space"}},
		{"fig3", []string{"fig3"}},
		{"fig9", []string{"fig9"}},
		{"fig7,fig8", []string{"fig7", "fig8"}},
		{" Space , FIG4 ", []string{"space", "fig4"}},
		{"fig4,all", experimentNames},
		{"sharded", nil},
		{"liveband", nil},
		{"disk", nil},
		{"none", nil},
		{"fig4,incremental", nil},
		{"fig10", nil},
		{"", nil},
		{"fig4,", nil},
	} {
		got, err := parseExperiments(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-exp %q: accepted as %v, want an error", tc.list, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.list, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("-exp %q: selected %v, want %v", tc.list, got, tc.want)
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("-exp %q: %s not selected", tc.list, name)
			}
		}
	}
}
