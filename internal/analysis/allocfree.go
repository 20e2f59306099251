package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocfree turns the PR-5/6 benchmark guarantee — the steady-state
// parallel cycle runs at 0 allocs/op (TestParallelSteadyStateAllocFree) —
// into a compile-time check. A function annotated //stashsim:noalloc must
// not contain allocating constructs, and the annotation is closed over
// the call graph: an in-scope module callee must itself be annotated, so
// deleting an annotation (or routing the hot path through a new helper)
// breaks the lint, not just the benchmark.
//
// Flagged constructs: make/new, slice and map literals, &composite
// literals, func literals (closures), go statements, string
// concatenation, string<->[]byte/[]rune conversions, values boxed into
// interface arguments or conversions, append that does not follow the
// sanctioned self-assign form `x = append(x, ...)` (amortized warm-cap
// growth), calls into non-allowlisted standard-library packages, calls to
// unannotated in-scope module functions, and dynamic calls through plain
// function values (unverifiable targets). Struct *value* literals, map
// index writes, channel operations, len/cap/copy/delete and panic are
// allowed: none of them heap-allocate in the steady state.
//
// Amortized or cold-path exceptions inside an annotated function are
// documented in place with `//lint:allow allocfree -- reason`.

// allocPkgs is the static closure the annotation may span: the executor
// spine (internal/sim), the switch hot path (internal/core) and the
// storage primitives it drives (internal/buffer, internal/proto, and
// internal/fault's link faults and resend ledger). Calls to module
// packages outside this set are exempt — the runtime benchmark still
// covers them — so annotating the spine does not force annotations across
// the whole repo.
var allocPkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/buffer",
	"internal/proto",
	"internal/fault",
}

// allocStdlibAllow lists the standard-library packages whose functions
// are allocation-free by contract and common on the hot path.
var allocStdlibAllow = map[string]bool{
	"sync/atomic": true,
	"sync":        true,
	"math":        true,
	"math/bits":   true,
	"runtime":     true,
}

// AllocFree enforces //stashsim:noalloc bodies and their call-graph
// closure.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "Functions annotated //stashsim:noalloc must not allocate, and their in-scope " +
		"callees must carry the annotation too (the hot path stays provably allocation-free).",
	Scope: func(relPath string) bool { return pathIn(relPath, allocPkgs) },
	Run:   runAllocFree,
}

func runAllocFree(pass *Pass) error {
	facts := factsFor(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !facts.Ann(fn).NoAlloc {
				continue
			}
			checkNoAllocBody(pass, facts, fd)
		}
	}
	checkNoAllocIfaceImpls(pass, facts)
	return nil
}

// allocScoped reports whether a package path (module-relative or full)
// falls in the annotation's static closure; subdirectories count, so
// fixture packages can sit beneath a scoped path.
func allocScoped(pkgPath string) bool {
	rel := strings.TrimPrefix(pkgPath, "stashsim/")
	for _, p := range allocPkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

func checkNoAllocBody(pass *Pass, facts *Facts, fd *ast.FuncDecl) {
	// selfAppends are append calls in the sanctioned `x = append(x, ...)`
	// shape, collected so the call walk can skip them.
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(pass.Info, call, "append") || len(call.Args) == 0 {
					continue
				}
				if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
					selfAppends[call] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "noalloc function %s starts a goroutine (allocates a stack)", fd.Name.Name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "noalloc function %s contains a func literal (closures may allocate their captures)", fd.Name.Name)
			return false // don't double-report the closure's body
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "noalloc function %s builds a slice literal (allocates a backing array)", fd.Name.Name)
			case *types.Map:
				pass.Reportf(n.Pos(), "noalloc function %s builds a map literal (allocates)", fd.Name.Name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "noalloc function %s takes the address of a composite literal (heap-allocates; recycle through a freelist instead)", fd.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.Info.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "noalloc function %s concatenates strings (allocates)", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, facts, fd, n, selfAppends)
		}
		return true
	})
}

// checkNoAllocCall classifies one call inside a noalloc body.
func checkNoAllocCall(pass *Pass, facts *Facts, fd *ast.FuncDecl, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool) {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}

	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[f.Sel]
	}

	// Conversions: T(x), both named (obj is a TypeName) and unnamed
	// ([]byte(s), recorded as a type expression).
	if tn, ok := obj.(*types.TypeName); ok {
		checkNoAllocConversion(pass, fd, call, tn.Type())
		return
	}
	if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
		checkNoAllocConversion(pass, fd, call, tv.Type)
		return
	}
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make":
			pass.Reportf(call.Pos(), "noalloc function %s calls make (allocates)", fd.Name.Name)
		case "new":
			pass.Reportf(call.Pos(), "noalloc function %s calls new (heap-allocates; recycle through a freelist instead)", fd.Name.Name)
		case "append":
			if !selfAppends[call] {
				pass.Reportf(call.Pos(), "noalloc function %s uses append outside the sanctioned self-assign form x = append(x, ...)", fd.Name.Name)
			}
		}
		return
	}

	callee := calleeFunc(pass.Info, call)
	if callee == nil {
		// A dynamic call through a plain function value: the target is
		// unverifiable, so the closure proof stops here.
		pass.Reportf(call.Pos(), "noalloc function %s makes a dynamic call through a function value; the allocation contract cannot follow it", fd.Name.Name)
		return
	}

	checkBoxedArgs(pass, fd, call, callee)

	pkg := callee.Pkg()
	if pkg == nil {
		return // error.Error and other universe methods
	}
	switch {
	case allocScoped(pkg.Path()):
		if !facts.Ann(callee).NoAlloc {
			pass.Reportf(call.Pos(), "noalloc function %s calls %s, which is not annotated //stashsim:noalloc; annotate it or lift the call out of the hot path",
				fd.Name.Name, callee.Name())
		}
	case strings.HasPrefix(pkg.Path(), "stashsim/"):
		// Module package outside the closure's static scope: exempt; the
		// runtime benchmark still covers it.
	default:
		if !allocStdlibAllow[pkg.Path()] {
			pass.Reportf(call.Pos(), "noalloc function %s calls %s.%s; package %s is not on the allocation-free allowlist",
				fd.Name.Name, pkg.Name(), callee.Name(), pkg.Path())
		}
	}
}

// checkNoAllocConversion flags converting constructs: string <-> byte/rune
// slices copy, and conversion to an interface type boxes.
func checkNoAllocConversion(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := pass.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	switch target.Underlying().(type) {
	case *types.Interface:
		if !types.IsInterface(src) {
			pass.Reportf(call.Pos(), "noalloc function %s converts a value to an interface (boxes, may allocate)", fd.Name.Name)
		}
	case *types.Slice:
		if isStringType(src) {
			pass.Reportf(call.Pos(), "noalloc function %s converts a string to a slice (copies and allocates)", fd.Name.Name)
		}
	default:
		if isStringType(target) && !isStringType(src) {
			pass.Reportf(call.Pos(), "noalloc function %s converts to string (copies and allocates)", fd.Name.Name)
		}
	}
}

// checkBoxedArgs flags concrete values passed where the callee takes an
// interface: the implicit conversion boxes and may allocate. panic and
// error cold paths are expected to suppress with //lint:allow. The
// parameter types are the call site's — instantiated, where the callee is
// generic: a T parameter takes its argument unboxed.
func checkBoxedArgs(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, callee *types.Func) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(at) {
			continue
		}
		if pointerShaped(at) {
			// Pointers, channels, maps, funcs and unsafe.Pointers fit the
			// interface data word directly; storing one never allocates.
			continue
		}
		pass.Reportf(arg.Pos(), "noalloc function %s boxes a %s into interface parameter %d of %s (may allocate)",
			fd.Name.Name, at.String(), i, callee.Name())
	}
}

// checkNoAllocIfaceImpls requires implementations of noalloc-annotated
// interface methods (e.g. sim.Stepper.Step) declared in the allocfree
// scope to restate the annotation, so dynamic dispatch stays covered.
func checkNoAllocIfaceImpls(pass *Pass, facts *Facts) {
	methods := annotatedIfaceMethods(facts)
	if len(methods) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				T := tn.Type()
				if _, ok := T.Underlying().(*types.Interface); ok {
					continue
				}
				for _, m := range methods {
					if !m.ann.NoAlloc {
						continue
					}
					impl := implMethodInPackage(T, m, pass.Pkg)
					if impl == nil {
						continue
					}
					if !facts.Ann(impl).NoAlloc {
						pass.Reportf(impl.Pos(), "%s.%s implements %s, annotated //stashsim:noalloc, but does not restate the annotation",
							tn.Name(), impl.Name(), m.label)
					}
				}
			}
		}
	}
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t are a single pointer word, so
// converting one to an interface stores it inline without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
