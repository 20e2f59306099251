package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// phasecheck machine-checks the executor's two-phase concurrency contract
// (DESIGN.md, "Concurrency contract"). Each epoch has a parallel phase —
// every partition steps its components concurrently with the others —
// fenced by serial BeforeEpoch/AfterEpoch hooks that the coordinator runs
// alone.
// Declarations opt into the contract with //stashsim: directives
// (directive.go); the analyzer then proves, by walking the parallel
// phase's intra-package call-graph closure, that:
//
//   - no function annotated `phase serial` is callable from the parallel
//     phase;
//   - no field annotated `phase serial` is touched from the parallel
//     phase;
//   - every field the parallel phase writes is accounted for: annotated
//     owner-private (`owner worker|partition`), annotated parallel-safe
//     (`phase parallel`: atomics, mutex-protected, link staging slabs), of a
//     sync/atomic type, or a local value;
//   - a type implementing an interface whose method is annotated with a
//     phase carries the same annotation on its own method, so the
//     contract follows dynamic dispatch (sim.Stepper.Step is the root).
//
// The proof direction is reachability from the parallel seeds: serial
// code may touch anything (the coordinator runs it exclusively), so only
// the parallel closure is constrained. Dynamic calls through unannotated
// function values or interface methods are a known hole; annotate the
// interface method to close it.

// phasePkgs are the packages that participate in the executor's phase
// contract: the executor itself, the switch model it steps, and the
// observability packages its hot path feeds.
var phasePkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/metrics",
	"internal/telemetry",
	"internal/network",
	// Checkpoint/Restore walk every component's private state and are
	// annotated serial: the phase proof keeps them unreachable from the
	// parallel stepping closure.
	"internal/snapshot",
}

// PhaseCheck enforces the //stashsim:phase / //stashsim:owner contract.
var PhaseCheck = &Analyzer{
	Name: "phasecheck",
	Doc: "Prove serial-annotated state is unreachable from the executor's parallel phase, " +
		"and that parallel-phase writes only touch owner-private, atomic or inbox-mediated state.",
	Scope: func(relPath string) bool { return pathIn(relPath, phasePkgs) },
	Run:   runPhaseCheck,
}

func runPhaseCheck(pass *Pass) error {
	facts := factsFor(pass)
	// phasecheck owns the directive vocabulary, so it reports the
	// malformed and misplaced directives collected while building facts.
	for _, b := range facts.bad[pass.PkgPath] {
		pass.Reportf(b.pos, "%s", b.msg)
	}

	decls := packageFuncDecls(pass)

	// Seed the closure with this package's `phase parallel` functions, in
	// file order for determinism.
	closure := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn != nil && facts.Ann(fn).Phase == "parallel" && !closure[fn] {
				closure[fn] = true
				queue = append(queue, fn)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		checkParallelBody(pass, facts, decls, fd, closure, &queue)
	}

	checkPhaseIfaceImpls(pass, facts)
	return nil
}

// packageFuncDecls indexes the package's function declarations by their
// types object, for call-graph expansion.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	return decls
}

// checkParallelBody scans one parallel-closure function body: it flags
// serial calls and serial-field touches, validates every field write, and
// grows the closure through unannotated same-package callees.
func checkParallelBody(pass *Pass, facts *Facts, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl, closure map[*types.Func]bool, queue *[]*types.Func) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(pass.Info, n)
			if callee == nil {
				return true
			}
			switch facts.Ann(callee).Phase {
			case "serial":
				pass.Reportf(n.Pos(), "parallel phase (via //stashsim:phase parallel %s) calls %s, which is annotated //stashsim:phase serial",
					fd.Name.Name, callee.Name())
			case "":
				// Unannotated same-package callee: part of the closure.
				if _, ok := decls[callee]; ok && !closure[callee] {
					closure[callee] = true
					*queue = append(*queue, callee)
				}
			}
		case *ast.SelectorExpr:
			if f := selectedField(pass.Info, n); f != nil && facts.Ann(f).Phase == "serial" {
				pass.Reportf(n.Sel.Pos(), "parallel phase (via %s) touches field %s, which is annotated //stashsim:phase serial",
					fd.Name.Name, f.Name())
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkParallelWrite(pass, facts, fd, lhs)
			}
		case *ast.IncDecStmt:
			checkParallelWrite(pass, facts, fd, n.X)
		}
		return true
	})
}

// checkParallelWrite validates one parallel-phase write target: the
// written field must be owner-private, parallel-annotated, atomic, or a
// local value. Serial fields are already reported by the selector walk.
func checkParallelWrite(pass *Pass, facts *Facts, fd *ast.FuncDecl, lhs ast.Expr) {
	f, base := writtenField(pass.Info, lhs)
	if f == nil {
		return
	}
	ann := facts.Ann(f)
	if ann.Phase != "" || ann.Owner != "" {
		return // serial already flagged; parallel/owner is the contract
	}
	if isAtomicType(f.Type()) {
		return
	}
	// Only this package's fields: each package's own pass accounts for
	// its state, and unexported fields are unreachable elsewhere anyway.
	if f.Pkg() != pass.Pkg {
		return
	}
	if rootIsLocalValue(pass, base) {
		return
	}
	pass.Reportf(lhs.Pos(), "parallel phase (via %s) writes unannotated field %s; annotate it //stashsim:owner worker|partition or //stashsim:phase, or mediate the write through an inbox",
		fd.Name.Name, f.Name())
}

// calleeFunc resolves a call expression to the called function or method
// as declared, or nil for dynamic calls, conversions and builtins. A method
// of an instantiated generic type (buffer.List[proto.Flit].Push) is its own
// object; directives and bodies hang off the declaration, hence Origin.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// selectedField resolves a selector to the struct field it names, as
// declared (see calleeFunc), or nil.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v.Origin()
		}
	}
	return nil
}

// writtenField unwraps an assignment target down to the struct field it
// mutates (element writes count as writes to the containing field) and
// returns the field plus the selector's base expression.
func writtenField(info *types.Info, lhs ast.Expr) (*types.Var, ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if f := selectedField(info, e); f != nil {
				return f, e.X
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics.
func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// rootIsLocalValue reports whether the selector base bottoms out in a
// non-pointer local variable, so the write mutates a stack copy rather
// than shared state. Any pointer hop on the way down means the target may
// alias shared state, and the write stays flagged.
func rootIsLocalValue(pass *Pass, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if t := pass.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					return false
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			return false
		case *ast.Ident:
			obj := pass.Info.Uses[x]
			if obj == nil {
				obj = pass.Info.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				return false
			}
			if v.Parent() == pass.Pkg.Scope() {
				return false // package-level state
			}
			if _, ok := v.Type().Underlying().(*types.Pointer); ok {
				return false
			}
			return true
		default:
			return false
		}
	}
}

// annotatedIfaceMethod is one interface method carrying a //stashsim:
// directive, against which implementations are checked.
type annotatedIfaceMethod struct {
	fn    *types.Func
	iface *types.Interface
	ann   Annotation
	label string // pkg.Interface.Method, for diagnostics
}

// annotatedIfaceMethods extracts the directive-carrying interface methods
// from the facts, sorted by position for deterministic checking.
func annotatedIfaceMethods(facts *Facts) []annotatedIfaceMethod {
	var out []annotatedIfaceMethod
	for obj, ann := range facts.ann {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		label := fn.Name()
		if named, ok := sig.Recv().Type().(*types.Named); ok {
			label = named.Obj().Name() + "." + label
		}
		if fn.Pkg() != nil {
			label = fn.Pkg().Name() + "." + label
		}
		out = append(out, annotatedIfaceMethod{fn, iface, ann, label})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fn.Pos() < out[j].fn.Pos() })
	return out
}

// implMethodInPackage returns the method of T (or *T) that satisfies the
// annotated interface method m, provided that method is declared in pkg;
// nil otherwise.
func implMethodInPackage(T types.Type, m annotatedIfaceMethod, pkg *types.Package) *types.Func {
	ptr := types.NewPointer(T)
	if !types.Implements(T, m.iface) && !types.Implements(ptr, m.iface) {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.fn.Pkg(), m.fn.Name())
	impl, ok := obj.(*types.Func)
	if !ok || impl.Pkg() != pkg || impl == m.fn {
		return nil
	}
	return impl
}

// checkPhaseIfaceImpls requires implementations of phase-annotated
// interface methods (e.g. sim.Stepper.Step) to restate the phase on their
// own declaration, so the closure proof seeds every implementation.
func checkPhaseIfaceImpls(pass *Pass, facts *Facts) {
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
					if m.ann.Phase == "" {
						continue
					}
					impl := implMethodInPackage(T, m, pass.Pkg)
					if impl == nil {
						continue
					}
					if facts.Ann(impl).Phase != m.ann.Phase {
						pass.Reportf(impl.Pos(), "%s.%s implements %s, annotated //stashsim:phase %s, but does not restate the annotation",
							tn.Name(), impl.Name(), m.label, m.ann.Phase)
					}
				}
			}
		}
	}
}
