package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{analysis.NewCtxFlow()}, "ctxflow")
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
