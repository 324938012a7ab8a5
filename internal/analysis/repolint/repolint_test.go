package repolint

import "testing"

// TestSuiteWellFormed guards the registry the driver and CI run: every
// analyzer present, named uniquely (names double as //repolint:allow
// keys, so a collision would make directives ambiguous), and documented.
func TestSuiteWellFormed(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("suite has %d analyzers, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
