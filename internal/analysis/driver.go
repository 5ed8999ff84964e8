package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// RunAnalyzers executes every analyzer over every package, applies
// //armvet:ignore suppressions, and returns the surviving findings
// sorted by position then pass name. Analyzer errors abort the run.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		// One suppression table per file, shared by all passes.
		sup := map[string]suppressions{}
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			sup[name] = collectSuppressions(fset, f, known)
		}
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				if s := sup[pos.Filename]; s != nil && s.suppressed(a.Name, pos.Line) {
					continue
				}
				out = append(out, Finding{Pass: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return out, nil
}

// Analyzers returns the default armvet pass suite in its canonical
// order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetermVet, LockVet, AtomicVet, AllocVet, ProgVet}
}
