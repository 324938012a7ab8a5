package lint

import "go/token"

// The JSON shapes below are the machine-readable face of the suite:
// `repolint -json` emits a Report and CI archives it as a build
// artifact.

// A JSONDiagnostic is one finding with its file position resolved.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// A Report is the top-level -json document.
type Report struct {
	Count    int              `json:"count"`
	Findings []JSONDiagnostic `json:"findings"`
}

// NewReport resolves diagnostics against the FileSet into a Report.
// Findings is always non-nil so the JSON document carries [] rather
// than null when the tree is clean.
func NewReport(fset *token.FileSet, diags []Diagnostic) Report {
	findings := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		findings = append(findings, JSONDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return Report{Count: len(findings), Findings: findings}
}
