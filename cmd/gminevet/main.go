// Command gminevet is the repo's contract multichecker: it runs the
// internal/lint analyzer suite over the given packages and fails the
// build on any violation, the way `go vet` would. The suite encodes the
// invariants the hot paths rest on — the sweep and row-cursor
// buffer-aliasing contract, the buffer-pool pin discipline, errors.Is
// instead of sentinel identity, and zero-alloc //gmine:hotpath kernels —
// so a new call site that breaks one fails `make lint` instead of
// corrupting query results silently.
//
// Usage:
//
//	gminevet [-list] [-only name,name] [packages...]
//
// With no packages, ./... is checked. Exit status: 0 clean, 1 findings,
// 2 usage or load failure. Suppress a finding with a justified
// directive on (or directly above) the offending line:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/packages"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gminevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listOnly := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	dir := fs.String("C", ".", "change to this directory before loading packages")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.Analyzers()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			for n := range keep {
				fmt.Fprintf(stderr, "gminevet: unknown analyzer %q\n", n)
			}
			return 2
		}
		analyzers = sel
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := packages.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "gminevet: %v\n", err)
		return 2
	}
	bad := 0
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "gminevet: %v\n", err)
			return 2
		}
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "gminevet: %d finding(s)\n", bad)
		return 1
	}
	return 0
}
