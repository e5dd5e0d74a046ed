package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewCtxFlow()}, "ctxflow")
}

func TestCacheKey(t *testing.T) {
	cfg := analysis.CacheKeyConfig{
		OptionsPkgSuffix: "core",
		OptionsType:      "Options",
		KeyFuncPkgName:   "qcache",
		KeyFunc:          "NewKey",
		Exempt: map[string]string{
			"Stats":    "output-only counters",
			"Vanished": "a field that no longer exists: the exemption itself must be flagged",
		},
	}
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewCacheKey(cfg)}, "core", "qcache")
}

func TestFaultSite(t *testing.T) {
	ciRefs := map[string]string{
		"ci.yml": "go test ./... # exercises pkg.ci in the smoke step",
	}
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewFaultSite(ciRefs)}, "faultpoint", "faultuser")
}

func TestAtomicState(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewAtomicState()}, "atomicstate")
}
