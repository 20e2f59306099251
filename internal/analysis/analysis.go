// Package analysis is the project's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API (which
// is not vendored here) built directly on go/ast, go/parser and go/types,
// plus a loader that resolves package metadata through `go list`. It hosts
// the stashlint analyzers that machine-enforce the simulator's correctness
// contracts:
//
//   - determinism: simulation packages must not consult map iteration
//     order, wall-clock time, the global math/rand source, or spawn
//     unsynchronized goroutines (see determinism.go).
//   - nilsafe: exported pointer-receiver methods in internal/metrics must
//     begin with the nil-receiver guard that makes disabled observability
//     free (see nilsafe.go).
//   - panicstyle: panics in internal packages must carry the "pkg: ..."
//     constant-message format (see panicstyle.go).
//   - phasecheck: the executor's two-phase concurrency contract, declared
//     with //stashsim:phase and //stashsim:owner directives — serial-only
//     state must be unreachable from the parallel phase (see phasecheck.go,
//     directive.go).
//   - atomiccheck: a field accessed through sync/atomic anywhere must be
//     accessed atomically everywhere (see atomiccheck.go).
//   - allocfree: functions marked //stashsim:noalloc must not contain
//     allocating constructs, and their in-scope callees must be marked
//     too (see allocfree.go).
//   - snapcheck: every field of a struct with a checkpoint state walk is
//     selected in its package's snapshot.go or marked
//     //stashsim:derived / //stashsim:transient with a reason (see
//     snapcheck.go).
//
// A finding is suppressed by a directive comment on the same line or the
// line immediately above it:
//
//	//lint:allow <analyzer> -- <reason>
//
// The reason is mandatory; a bare allow is ignored (and therefore still
// reported), so every suppression documents why the contract does not
// apply at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of the contract it enforces.
	Doc string
	// Scope reports whether the analyzer applies to a package, given its
	// import path relative to the module root (e.g. "internal/core").
	// The driver consults it; fixture tests bypass it.
	Scope func(relPath string) bool
	// Run performs the analysis on one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the package's import path. Fixture tests load testdata
	// under a caller-chosen path, so path-dependent rules (like the
	// internal/sim goroutine exemption) are themselves testable.
	PkgPath string
	Info    *types.Info
	// Facts is the module-wide //stashsim: directive index shared by every
	// pass of a run so cross-package annotations resolve. When nil, the
	// directive-driven analyzers lazily build single-package facts.
	Facts *Facts

	diags   []Diagnostic
	allowed map[allowKey]bool
}

// allowKey locates one //lint:allow directive.
type allowKey struct {
	file string
	line int
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// allowRe matches a suppression directive. The reason after "--" is
// required, so suppressions are self-documenting.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_-]+)\s+--\s+\S`)

// NewPass prepares a pass, indexing the package's //lint:allow directives
// for this analyzer so Reportf can drop suppressed findings.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, pkgPath string, info *types.Info) *Pass {
	p := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		PkgPath:  pkgPath,
		Info:     info,
		allowed:  make(map[allowKey]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil || m[1] != a.Name {
					continue
				}
				pos := fset.Position(c.Pos())
				p.allowed[allowKey{pos.Filename, pos.Line}] = true
			}
		}
	}
	return p
}

// Reportf records a finding at pos unless a matching //lint:allow
// directive appears on the same line or the line directly above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed[allowKey{position.Filename, position.Line}] ||
		p.allowed[allowKey{position.Filename, position.Line - 1}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostics returns the surviving findings sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// All returns the stashlint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, NilSafe, PanicStyle, PhaseCheck, AtomicCheck, AllocFree, SnapCheck}
}

// pathIn reports whether relPath equals one of the listed package paths or
// sits beneath a listed prefix ending in "/".
func pathIn(relPath string, list []string) bool {
	for _, p := range list {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(relPath, p) {
				return true
			}
			continue
		}
		if relPath == p {
			return true
		}
	}
	return false
}
