// Package linttest runs a lint.Analyzer over a testdata fixture and
// checks its findings against expectations embedded in the fixture
// itself, in the style of golang.org/x/tools/go/analysis/analysistest:
// a comment
//
//	x := rand.Intn(10) // want `global math/rand`
//
// asserts that the analyzer reports a diagnostic on that line matching
// the backquoted regular expression. Every reported diagnostic must
// match a want on its line and every want must be matched, so fixtures
// prove both that the analyzer catches seeded violations and that it
// stays quiet on the clean code (and //repolint:allow escapes) around
// them.
//
// Every directory under testdata/src is loaded as one package (its
// base name is its import path), and fixtures may import each other —
// how the interprocedural analyzers get a multi-package program to
// chew on.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"pathsel/internal/analysis/lint"
)

// wantRe extracts the expectation patterns from a comment: each
// backquoted or double-quoted string after "want".
var wantRe = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

// Run loads every fixture package under testdata/src relative to the
// calling test's directory, applies the analyzer to the whole program,
// and compares diagnostics against the fixtures' want comments. pkg
// names the primary fixture (it must exist; sibling packages are
// loaded with it).
func Run(t *testing.T, a *lint.Analyzer, pkg string) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	if _, err := os.Stat(filepath.Join(root, pkg)); err != nil {
		t.Fatalf("fixture package %s: %v", pkg, err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading %s: %v", root, err)
	}
	loader := lint.NewLoader().WithSourceRoot(root)
	var pkgs []*lint.Package
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		p, err := loader.LoadDir(filepath.Join(root, e.Name()), e.Name())
		if err != nil {
			t.Fatalf("loading fixture %s: %v", e.Name(), err)
		}
		pkgs = append(pkgs, p)
	}
	prog := lint.NewProgram(pkgs)
	diags, err := prog.Run([]*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, prog, diags)
}

// checkWants matches every diagnostic against the fixture's want
// comments, and every want against the diagnostics.
func checkWants(t *testing.T, prog *lint.Program, diags []lint.Diagnostic) {
	t.Helper()
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	// wants[file][line] holds that line's expectations in order.
	wants := map[string]map[int][]*want{}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					i := indexWord(text, "want")
					if i < 0 {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						if wants[pos.Filename] == nil {
							wants[pos.Filename] = map[int][]*want{}
						}
						wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], &want{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants[pos.Filename][pos.Line] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, w.re)
				}
			}
		}
	}
}

// indexWord finds "want" as a standalone word in a comment, returning
// the index just past it, or -1.
func indexWord(s, word string) int {
	for i := 0; i+len(word) <= len(s); i++ {
		if s[i:i+len(word)] != word {
			continue
		}
		beforeOK := i == 0 || !isWordChar(s[i-1])
		afterOK := i+len(word) == len(s) || !isWordChar(s[i+len(word)])
		if beforeOK && afterOK {
			return i + len(word)
		}
	}
	return -1
}

func isWordChar(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}
