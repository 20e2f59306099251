package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// snapcheck keeps "state declared once" honest. Every stateful type
// declares its checkpointed state as one bidirectional walk over a
// *snapshot.Codec, in its package's snapshot.go; a field added to such a
// type and forgotten there would silently drop out of every checkpoint,
// and resume equality would notice only if a test happened to exercise
// it. So for every struct with a state walk, each field must either be
// selected somewhere in that snapshot.go (walked, or consulted to
// validate or rebuild what is walked) or say why it is not state:
//
//	//stashsim:derived -- structural; rebuilt from the configuration
//	//stashsim:transient -- per-cycle scratch, recomputed before use
//
// derived marks what restore rebuilds from the configuration or from
// walked state; transient marks scratch, wiring and debugging sinks that
// a restored run starts without. The reason is mandatory (a bare
// directive is malformed and leaves the field unmarked).
//
// A struct has a state walk when a function in snapshot.go that takes a
// *snapshot.Codec has it as receiver or pointer parameter (function
// literals inside such a function count: they are the element walks handed
// to the codec's generics), or when a walked struct holds it by value —
// directly or as array or slice elements — in a field the walk selects,
// and the walk selects at least one of its own fields too (a plan entry
// consulted only through len() is configuration, not walked state).

// SnapCheck flags unwalked, unmarked fields of checkpointed structs.
var SnapCheck = &Analyzer{
	Name: "snapcheck",
	Doc: "every field of a struct with a state walk must be selected in the package's snapshot.go " +
		"or carry //stashsim:derived or //stashsim:transient with a reason",
	Scope: func(relPath string) bool { return strings.HasPrefix(relPath, "internal/") },
	Run:   runSnapCheck,
}

func runSnapCheck(pass *Pass) error {
	facts := factsFor(pass)
	selected := make(map[*types.Var]bool)
	walked := make(map[*types.Named]bool)
	var queue []*types.Named
	walk := func(t types.Type, held bool) {
		n := localStruct(pass, t)
		if n == nil || walked[n] || held && !anySelected(n, selected) {
			return
		}
		walked[n] = true
		queue = append(queue, n)
	}
	for _, file := range pass.Files {
		if filepath.Base(pass.Fset.Position(file.Pos()).Filename) != "snapshot.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if f := selectedField(pass.Info, sel); f != nil {
					selected[f] = true
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !takesCodec(pass, fn.Type) {
				continue
			}
			if fn.Recv != nil {
				walk(pass.Info.TypeOf(fn.Recv.List[0].Type), false)
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if ft, ok := n.(*ast.FuncType); ok {
					for _, p := range ft.Params.List {
						walk(pass.Info.TypeOf(p.Type), false)
					}
				}
				return true
			})
		}
	}
	var structs []*types.Named
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		structs = append(structs, n)
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); selected[f] {
				walk(heldByValue(f.Type()), true)
			}
		}
	}
	sort.Slice(structs, func(i, j int) bool { return structs[i].Obj().Pos() < structs[j].Obj().Pos() })
	for _, n := range structs {
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || selected[f] || facts.Ann(f).State != "" {
				continue
			}
			pass.Reportf(f.Pos(), "field %s.%s is not selected by the state walk in snapshot.go and is not marked //stashsim:derived or //stashsim:transient (with a reason): a checkpoint would silently drop it",
				n.Obj().Name(), f.Name())
		}
	}
	return nil
}

// anySelected reports whether the walk selects at least one field of n.
func anySelected(n *types.Named, selected map[*types.Var]bool) bool {
	st := n.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if selected[st.Field(i)] {
			return true
		}
	}
	return false
}

// takesCodec reports whether the function type has a *snapshot.Codec
// parameter.
func takesCodec(pass *Pass, ft *ast.FuncType) bool {
	for _, p := range ft.Params.List {
		ptr, ok := pass.Info.TypeOf(p.Type).(*types.Pointer)
		if !ok {
			continue
		}
		if n, ok := ptr.Elem().(*types.Named); ok && n.Obj().Name() == "Codec" &&
			n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/snapshot") {
			return true
		}
	}
	return false
}

// localStruct strips pointers from t and returns it — as declared, when it
// is an instance of a generic type — when it is a named struct type declared
// in the package under analysis.
func localStruct(pass *Pass, t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() != pass.Pkg {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n.Origin()
}

// heldByValue unwraps arrays and slices down to the element type a field
// stores by value (a pointer element is not unwrapped: what it points to
// has its own owner).
func heldByValue(t types.Type) types.Type {
	for {
		switch u := t.Underlying().(type) {
		case *types.Array:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			if _, ok := t.(*types.Pointer); ok {
				return types.Typ[types.Invalid]
			}
			return t
		}
	}
}
