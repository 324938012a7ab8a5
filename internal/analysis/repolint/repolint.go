// Package repolint assembles the repo's analyzer suite in one place so
// the cmd/repolint driver and the clean-tree regression test run the
// exact same checks.
package repolint

import (
	"pathsel/internal/analysis/ctxflow"
	"pathsel/internal/analysis/ctxleak"
	"pathsel/internal/analysis/detflow"
	"pathsel/internal/analysis/detrand"
	"pathsel/internal/analysis/floateq"
	"pathsel/internal/analysis/hotalloc"
	"pathsel/internal/analysis/lint"
	"pathsel/internal/analysis/maporder"
	"pathsel/internal/analysis/obsmetric"
)

// All returns every analyzer in the suite, in reporting order. The
// first five are intraprocedural (v1); ctxleak, detflow and hotalloc
// arrived with the call-graph engine and consume the shared Program
// facts.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxflow.Analyzer,
		ctxleak.Analyzer,
		detflow.Analyzer,
		detrand.Analyzer,
		floateq.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
		obsmetric.Analyzer,
	}
}
