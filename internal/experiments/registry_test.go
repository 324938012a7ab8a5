package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestFiguresRegistry(t *testing.T) {
	if len(Figures) != 16 {
		t.Fatalf("%d figures, want 16", len(Figures))
	}
	var scale, detailed []int
	for i, f := range Figures {
		if f.N != i+1 {
			t.Errorf("entry %d is figure %d; the registry must be ordered 1..16", i, f.N)
		}
		if prefix := fmt.Sprintf("Figure %d: ", f.N); !strings.HasPrefix(f.Title, prefix) {
			t.Errorf("figure %d title %q lacks %q", f.N, f.Title, prefix)
		}
		if f.Series == nil {
			t.Errorf("figure %d has no Series", f.N)
		}
		if f.Scale {
			scale = append(scale, f.N)
		}
		if f.Detailed {
			detailed = append(detailed, f.N)
		}
	}
	if got := fmt.Sprint(scale); got != "[1 2 3 15]" {
		t.Errorf("scale figures %s, want [1 2 3 15]", got)
	}
	if got := fmt.Sprint(detailed); got != "[7 8 12 13 14 16]" {
		t.Errorf("detailed figures %s, want [7 8 12 13 14 16]", got)
	}
}
