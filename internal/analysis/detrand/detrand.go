// Package detrand defines an analyzer enforcing the reproduction's
// core contract: every dataset is a deterministic function of the
// configured seed. The paper's headline numbers (30–80% of pairs with
// a better alternate path) are only reproducible if same-seed runs are
// bit-identical, so inside the simulation and analysis packages all
// randomness must flow from an explicitly seeded *rand.Rand and no
// result may depend on the wall clock.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"pathsel/internal/analysis/lint"
)

// Packages is the set of import paths held to the determinism
// contract. Serving-layer packages (cmd/serve, internal/server,
// internal/obs) are exempt: wall-clock timestamps and jitter are part
// of their job. internal/loadgen generates its request mix from a
// seed, but it measures wall-clock latencies, so it stays exempt too.
// Tests may extend this set to cover fixture packages.
var Packages = map[string]bool{}

func init() {
	for _, name := range []string{
		"topology", "igp", "bgp", "netsim", "measure", "core",
		"experiments", "stats", "tcpmodel", "tcpsim", "dynamics",
		"geo", "probe", "optimal", "overlay", "csr", "pathset",
		"packetnet", "snapshot", "fanout",
	} {
		Packages["pathsel/internal/"+name] = true
	}
}

// Analyzer flags global math/rand state and wall-clock reads in
// deterministic packages.
var Analyzer = &lint.Analyzer{
	Name: "detrand",
	Doc: "flag global math/rand functions and time.Now/Since/Until in deterministic packages; " +
		"all randomness there must come from an explicitly seeded *rand.Rand so same-seed runs are bit-identical",
	Run: run,
}

// clockFuncs are the package time functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *lint.Pass) error {
	if !Packages[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				// The constructors (New, NewSource, NewZipf, ...) build
				// the explicitly seeded generators we require; every
				// other package-level function touches the hidden
				// global generator.
				if !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(id.Pos(), "global %s.%s uses process-wide random state; draw from an explicitly seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
				}
			case "time":
				if clockFuncs[fn.Name()] {
					pass.Reportf(id.Pos(), "time.%s reads the wall clock in a deterministic package; results must be a function of the seed only", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
