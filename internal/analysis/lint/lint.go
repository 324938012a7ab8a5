// Package lint is a small, dependency-free static-analysis framework
// in the image of golang.org/x/tools/go/analysis: an Analyzer inspects
// one type-checked package at a time through a Pass and reports
// position-anchored Diagnostics. It exists because the reproduction's
// determinism and cancellation contracts ("bit-identical output for a
// given seed", "cancelling ctx aborts the build") are invariants the
// compiler cannot see, so they need repo-specific checkers runnable in
// CI; and because this module is deliberately stdlib-only, the x/tools
// framework is reimplemented here at the scale the repo needs rather
// than vendored.
//
// Findings can be suppressed at a call site with a directive comment on
// the offending line or the line above:
//
//	//repolint:allow detrand -- seeding the demo from wall-clock is the point
//
// The directive names one or more analyzers; everything after "--" is
// an (encouraged) justification. Deliberate exceptions stay visible and
// greppable instead of silently rotting the contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //repolint:allow directives. It must look like a Go identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why, shown by `repolint -list`.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf. Returning an error aborts the whole lint run: it
	// signals a broken analyzer, not a finding.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Package is one loaded, parsed, type-checked package ready for
// analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Pass connects an Analyzer to the Package it is inspecting.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole loaded program when the pass runs under
	// Program.Run (always, for the repolint driver and linttest); it
	// carries the shared call graph and taint facts the
	// interprocedural analyzers consume.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several
// analyzers exempt tests: tests may legitimately consult wall clocks,
// use throwaway contexts, or compare floats they just constructed.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Program is one shared load: every package the analyzers will
// inspect, plus lazily-built whole-program facts (the call graph,
// taint sets) computed once and reused by every analyzer. The
// repolint driver builds one Program per invocation — that single
// type-checked load is what every analyzer shares.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	cgOnce sync.Once
	cg     *CallGraph

	mu    sync.Mutex
	cache map[any]any
}

// NewProgram bundles the loaded packages into one analyzable program.
// The packages must share one FileSet (one Loader guarantees this).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs, cache: map[any]any{}}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	return p
}

// Package returns the loaded package with the given import path, or
// nil. Only packages named in the load are present — not their
// imports' imports.
func (p *Program) Package(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// Cached memoizes a whole-program fact under key: the first caller's
// build result is returned to every later caller. Analyzers use it so
// per-package Run invocations share one computation (e.g. one taint
// propagation) across the program.
func (p *Program) Cached(key any, build func() any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := build()
	p.cache[key] = v
	return v
}

// Run applies every analyzer to every package of the program, drops
// findings suppressed by //repolint:allow directives, and returns the
// rest sorted by position.
func (p *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range p.Pkgs {
		allow := collectAllows(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     p,
			}
			pass.report = func(d Diagnostic) {
				if !allow.suppressed(pkg.Fset, d) {
					diags = append(diags, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := p.Fset.Position(diags[i].Pos), p.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// Run applies every analyzer to the single package pkg. It wraps a
// one-package Program; analyzers needing cross-package facts see only
// pkg. The multichecker and linttest use Program.Run directly.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewProgram([]*Package{pkg}).Run(analyzers)
}

// directivePrefix introduces every repolint source annotation
// (//repolint:allow, //repolint:hotpath, ...).
const directivePrefix = "//repolint:"

// HasDirective reports whether the comment group contains the given
// repolint directive (e.g. "hotpath"), ignoring any arguments after it.
func HasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix+name)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// allowKey locates one //repolint:allow directive: a (file, line,
// analyzer) triple.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet map[allowKey]bool

const allowPrefix = "//repolint:allow"

// collectAllows scans every comment in the package for allow
// directives.
func collectAllows(pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				// Everything after "--" is justification, not names.
				names, _, _ := strings.Cut(rest, "--")
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(names) {
					set[allowKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return set
}

// suppressed reports whether d is covered by a directive on its own
// line or the line immediately above (the two places Go convention puts
// an explanatory comment).
func (s allowSet) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	return s[allowKey{pos.Filename, pos.Line, d.Analyzer}] ||
		s[allowKey{pos.Filename, pos.Line - 1, d.Analyzer}]
}
