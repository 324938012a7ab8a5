// Command repolint runs the repo's custom static-analysis suite — the
// determinism, cancellation, allocation and metrics-invariant checkers
// under internal/analysis — over a set of Go package patterns, in the
// manner of an x/tools multichecker.
//
// Usage:
//
//	repolint [-only names] [-list] [-json] [packages...]
//
// With no packages, ./... is checked. All requested packages are
// loaded and type-checked once into a single shared program, so the
// interprocedural analyzers (detflow, ctxleak, hotalloc) see the
// whole call graph and the per-analyzer cost is one AST walk, not one
// load.
//
// -json emits a machine-readable report on stdout instead of the
// line-oriented findings.
//
// Exit status is 1 if any analyzer reported a finding, 2 on usage or
// load errors. Individual findings are suppressed in source with
// //repolint:allow <analyzer> on the offending line or the line above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pathsel/internal/analysis/lint"
	"pathsel/internal/analysis/repolint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	flag.Parse()

	analyzers := repolint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "repolint: unknown analyzer(s) %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	prog := lint.NewProgram(pkgs)
	diags, err := prog.Run(analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		report := lint.NewReport(prog.Fset, diags)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: [%s] %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
