// Command stashlint runs the project's analyzer suite (see
// internal/analysis) over the module: determinism for the simulation
// packages, nilsafe for the metrics handles, panicstyle for every
// internal package, phasecheck and atomiccheck for the executor's
// concurrency contract, allocfree for the //stashsim:noalloc hot path,
// and snapcheck for the completeness of the checkpoint state walks.
//
// Usage:
//
//	stashlint [packages]       # defaults to ./...
//	stashlint -list            # print the analyzers and their contracts
//	stashlint -json [packages] # diagnostics as a JSON array on stdout
//
// Findings print as file:line:col: message [analyzer]; the exit status is
// 1 when any finding survives its //lint:allow suppressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stashsim/internal/analysis"
)

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := analysis.NewLoader(".")
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stashlint: %v\n", err)
		os.Exit(2)
	}

	// One directive index across every loaded package, so phase and
	// noalloc annotations resolve over cross-package calls.
	facts := analysis.BuildFacts(pkgs...)

	diags := []jsonDiagnostic{}
	findings := 0
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			if pkg.Rel == "" || !a.Scope(pkg.Rel) {
				continue
			}
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Path, pkg.Info)
			pass.Facts = facts
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "stashlint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
			for _, d := range pass.Diagnostics() {
				if *asJSON {
					diags = append(diags, jsonDiagnostic{
						File:     d.Pos.Filename,
						Line:     d.Pos.Line,
						Column:   d.Pos.Column,
						Message:  d.Message,
						Analyzer: d.Analyzer,
						Package:  pkg.Path,
					})
				} else {
					fmt.Println(d)
				}
				findings++
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "stashlint: %v\n", err)
			os.Exit(2)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "stashlint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
