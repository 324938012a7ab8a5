// Package ctxflow defines an analyzer guarding the cancellation chain
// built in PR 2: an HTTP client disconnect must propagate through
// experiments.BuildContext → measure.RunContext → core.Analyzer →
// fanout.For and actually stop the work. Two bugs quietly break that
// chain: minting a fresh context.Background()/TODO() deep in library
// code (detaching everything below it from the caller's cancellation),
// and accepting a ctx parameter but never consulting it.
package ctxflow

import (
	"go/ast"
	"go/types"

	"pathsel/internal/analysis/lint"
)

// Analyzer flags dropped or severed context plumbing.
var Analyzer = &lint.Analyzer{
	Name: "ctxflow",
	Doc: "flag context.Background()/TODO() outside package main and tests, and exported functions " +
		"that accept a ctx parameter without ever using it; both sever the cancellation chain",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		checkFreshContexts(pass, f)
		checkUnusedCtxParams(pass, f)
	}
	return nil
}

// checkFreshContexts flags context.Background()/context.TODO() in
// library packages. main packages own the root of the context tree, so
// they are exempt.
func checkFreshContexts(pass *lint.Pass, f *ast.File) {
	if pass.Pkg.Name() == "main" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(id.Pos(), "context.%s() in a library package detaches callees from the caller's cancellation; accept and thread a ctx instead", fn.Name())
		}
		return true
	})
}

// checkUnusedCtxParams flags exported functions that take a named
// context.Context parameter and never read it: the signature promises
// cancellation the body does not deliver.
func checkUnusedCtxParams(pass *lint.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !fn.Name.IsExported() {
			continue
		}
		for _, field := range fn.Type.Params.List {
			if !isContextType(pass.Info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue // explicitly discarded: the author opted out visibly
				}
				obj := pass.Info.Defs[name]
				if obj != nil && !usedIn(pass, fn.Body, obj) {
					pass.Reportf(name.Pos(), "exported %s accepts ctx but never uses it; thread it into callees or rename the parameter to _", fn.Name.Name)
				}
			}
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// usedIn reports whether obj is referenced anywhere in body.
func usedIn(pass *lint.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
