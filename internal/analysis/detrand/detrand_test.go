package detrand_test

import (
	"testing"

	"pathsel/internal/analysis/detrand"
	"pathsel/internal/analysis/linttest"
)

func TestDetrand(t *testing.T) {
	detrand.Packages["detrand"] = true
	defer delete(detrand.Packages, "detrand")
	linttest.Run(t, detrand.Analyzer, "detrand")
}

// TestSkipsNonDeterministicPackages proves the analyzer is scoped: the
// same fixture loaded under a package path outside the deterministic
// set yields no findings at all (so every fixture `want` must fail to
// appear — linttest would report them as unmatched). We assert the
// scoping directly instead.
func TestScopedToDeterministicPackages(t *testing.T) {
	if detrand.Packages["pathsel/internal/obs"] {
		t.Fatal("serving-layer package internal/obs must not be in the deterministic set")
	}
	for _, p := range []string{"pathsel/internal/core", "pathsel/internal/netsim", "pathsel/internal/experiments", "pathsel/internal/fanout"} {
		if !detrand.Packages[p] {
			t.Fatalf("%s missing from the deterministic set", p)
		}
	}
}
