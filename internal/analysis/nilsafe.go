package analysis

import (
	"go/ast"
)

// NilSafe enforces the observability layer's free-when-off contract: a
// sink that is not attached is a nil pointer, and calling through it must
// be a no-op, so the tracer's Record can stay compiled into the simulation
// hot path unconditionally and a network's Sampler, Watchdog, Flight and
// Metrics handles need no guards at their call sites. Concretely, every
// exported method with a pointer receiver in internal/metrics must begin
// with the nil-receiver guard —
//
//	func (t *Tracer) Record(...) {
//		if t == nil {
//			return
//		}
//		...
//	}
//
// — as its first statement (an `if` whose condition checks the receiver
// against nil, possibly || / && combined with more conditions). The
// inverted form — the whole body wrapped in `if t != nil { ... }` — is
// accepted too. Value receivers and unexported methods are exempt.
var NilSafe = &Analyzer{
	Name:  "nilsafe",
	Doc:   "exported pointer-receiver methods in internal/metrics must begin with the nil-receiver guard",
	Scope: func(relPath string) bool { return relPath == "internal/metrics" },
	Run:   runNilSafe,
}

func runNilSafe(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recv := fn.Recv.List[0]
			if _, ok := recv.Type.(*ast.StarExpr); !ok {
				continue // value receiver: nil cannot reach it
			}
			if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
				pass.Reportf(fn.Pos(), "exported method %s has an unnamed pointer receiver and cannot guard against nil", fn.Name.Name)
				continue
			}
			if !startsWithNilGuard(fn.Body, recv.Names[0].Name) {
				pass.Reportf(fn.Pos(), "exported method %s does not begin with the nil-receiver guard (if %s == nil ...)",
					fn.Name.Name, recv.Names[0].Name)
			}
		}
	}
	return nil
}

// startsWithNilGuard reports whether the body's first statement is an if
// whose condition tests the receiver against nil.
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	return condChecksNil(ifStmt.Cond, recv)
}

// condChecksNil walks a condition's ||/&& structure looking for a
// `recv == nil` / `recv != nil` (either operand order) comparison. The
// `!=` form covers the wrapped-body guard `if c != nil { ... }`.
func condChecksNil(e ast.Expr, recv string) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return condChecksNil(e.X, recv)
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "||", "&&":
			return condChecksNil(e.X, recv) || condChecksNil(e.Y, recv)
		case "==", "!=":
			return isIdent(e.X, recv) && isIdent(e.Y, "nil") ||
				isIdent(e.X, "nil") && isIdent(e.Y, recv)
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
