// Command armvet runs the armbar static-analysis suite (determvet,
// lockvet, atomicvet, allocvet, progvet) over package patterns and
// exits nonzero if any finding survives //armvet:ignore suppression.
// The fencevet subcommand verifies fence placements instead of source:
// it explores every litmus shape's placement lattice under the
// reorder-bounded semantics and cross-checks the verdicts against
// absmodel's closed-form requirements (see internal/explore).
//
//	armvet ./...          # what make lint runs
//	armvet -list          # describe the passes
//	armvet internal/sim   # one directory
//	armvet fencevet       # what make fencecheck runs
//
// See internal/analysis for the pass semantics and the annotation
// directives (armvet:guardedby, armvet:holds, armvet:hotpath,
// armvet:ignore).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armbar/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive it. Returns
// 0 for a clean tree, 1 when findings remain, 2 on usage or load
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "fencevet" {
		return runFenceVet(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("armvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: armvet [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "armvet:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "armvet:", err)
		return 2
	}
	findings, err := analysis.RunAnalyzers(loader.Fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "armvet:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "armvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
