// Package analysis is armvet's static-analysis framework: a
// dependency-free subset of the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) built directly on the standard
// library's go/ast and go/types, plus a module-aware package loader
// and a diagnostic driver with suppression directives.
//
// Why not golang.org/x/tools itself: the reproduction is deliberately
// dependency-free (go.mod pulls nothing), and the build environment is
// offline, so the framework re-implements the small slice of the
// x/tools API the passes need. Pass Run functions are written against
// the same shapes (Pass.Fset/Files/Pkg/TypesInfo, Pass.Reportf), so a
// future migration to the real multichecker is a mechanical import
// swap.
//
// The shipped analyzers enforce the invariants the test suite
// otherwise only observes at runtime:
//
//   - determvet: no nondeterminism sources (wall clock, global
//     math/rand, map iteration order) may feed the byte-identical
//     seeded output the golden digest test pins.
//   - lockvet: struct fields annotated `// armvet:guardedby <mutex>`
//     are only touched by functions that lock that mutex (or are
//     annotated `// armvet:holds <mutex>`).
//   - atomicvet: a field accessed through sync/atomic anywhere in a
//     package is never read or written plainly elsewhere in it.
//   - allocvet: the committed hot-path function list (the code paths
//     whose benchmarks `make perfcheck` holds at 0 allocs/op) contains
//     no constructs that force or invite heap allocation.
//
// A finding is silenced with `//armvet:ignore <pass>[,<pass>...]` on
// the flagged line or in the doc-comment group above it; see
// suppress.go for the exact matching rules.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// //armvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `armvet -list` prints.
	Doc string
	// Run executes the pass over one package. Findings are delivered
	// through pass.Report/Reportf; the first return value is unused
	// (kept for API compatibility).
	Run func(pass *Pass) (interface{}, error)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs a collector
	// here; suppression filtering happens downstream, so passes report
	// every finding unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as the driver hands it to callers:
// position materialized, pass name attached.
type Finding struct {
	Pass    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Pass)
}

// inspectStack walks root in depth-first order calling fn with each
// node and the stack of its ancestors (outermost first, not including
// n itself). Returning false prunes the subtree. It is the shared
// traversal primitive of the passes that need parent context (atomic
// address-of positions, append reassignment shapes, immediately
// invoked closures).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Subtree pruned: ast.Inspect sends no closing nil for n,
			// so n must not be pushed.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
