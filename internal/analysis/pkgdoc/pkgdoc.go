// Package pkgdoc is the docs-health gate: every package must carry a
// package-level doc comment on at least one of its files so `go doc`
// output stays useful. Running it as a simlint analyzer gives findings
// real positions and folds the docs gate into the same CI step as the
// determinism and hot-path checks.
package pkgdoc

import (
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the pkgdoc check.
var Analyzer = &analysis.Analyzer{
	Name: "pkgdoc",
	Doc:  "require a package-level doc comment on at least one file of every package",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return nil
		}
	}
	if len(pass.Files) == 0 {
		return nil
	}
	pass.Reportf(pass.Files[0].Name.Pos(),
		"package %s has no package-level doc comment on any file; document what the package is for",
		pass.Pkg.Name())
	return nil
}
