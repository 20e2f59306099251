package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //stashsim: directive family is the machine-readable half of the
// executor's concurrency and allocation contract (DESIGN.md, "Concurrency
// contract"). Directives annotate declarations; the phasecheck and
// allocfree analyzers consume them through a Facts index built over every
// loaded package, so cross-package calls see the callee's annotations.
//
// Vocabulary:
//
//	//stashsim:phase serial      (funcs, types, fields)
//	//stashsim:phase parallel    (funcs, types, fields)
//	//stashsim:owner worker      (types, fields)
//	//stashsim:owner partition   (types, fields)
//	//stashsim:noalloc           (funcs, interface methods)
//	//stashsim:derived -- why    (fields)
//	//stashsim:transient -- why  (fields)
//
// On a function, `phase serial` asserts it runs only in serial context
// (the executor's BeforeEpoch/AfterEpoch hooks, between Runs, or the
// Run-after-Close fallback); `phase parallel` marks a parallel-phase
// root: it (and everything it reaches) may run concurrently with other
// components' steps. On a field, `phase serial` marks state that
// parallel-phase code must never touch, and `phase parallel` marks state
// safe for concurrent-phase access by construction (atomics, parity
// inboxes). `owner worker|partition` marks owner-private state: touched
// during the parallel phase only by the goroutine that owns it (worker),
// or only by the worker that steps the owning component's block
// (partition) — the component's own Step, and the direct link pushes of
// components in that worker's other blocks, which write the consumer's
// ring and wake slot from the same goroutine an epoch apart. A directive
// on a struct type applies to all
// its fields; a field-level directive overrides the type-level one
// attribute-by-attribute. `noalloc` asserts a function's steady-state
// body allocates nothing; the allocfree analyzer requires its module
// callees (within the checked packages) to carry the same annotation.
// `derived` and `transient` are the snapcheck analyzer's exemptions for
// fields of checkpointed structs that the state walk leaves out: rebuilt
// on restore, or scratch a restored run starts without. Their reason is
// mandatory.
//
// An optional trailing " -- reason" documents the annotation:
//
//	//stashsim:phase serial -- runs from the AfterEpoch hook only

// directivePrefix introduces every stashsim annotation comment.
const directivePrefix = "//stashsim:"

// Annotation is the parsed directive set attached to one declaration.
type Annotation struct {
	Phase   string // "", "serial" or "parallel"
	Owner   string // "", "worker" or "partition"
	NoAlloc bool
	State   string // "", "derived" or "transient" (fields only; never inherited)
}

// merge overlays field-level a over type-level base, attribute by
// attribute.
func (a Annotation) merge(base Annotation) Annotation {
	out := a
	if out.Phase == "" {
		out.Phase = base.Phase
	}
	if out.Owner == "" {
		out.Owner = base.Owner
	}
	out.NoAlloc = out.NoAlloc || base.NoAlloc
	return out
}

// zero reports whether no directive applies.
func (a Annotation) zero() bool {
	return a.Phase == "" && a.Owner == "" && !a.NoAlloc && a.State == ""
}

// badDirective is one malformed or misplaced //stashsim: comment.
type badDirective struct {
	pos token.Pos
	msg string
}

// Facts indexes every //stashsim: directive of the loaded packages by the
// annotated object (functions, type names, struct fields, interface
// methods). Passes share one Facts so annotations are visible across
// package boundaries; fixture loads build it from the fixture alone.
type Facts struct {
	ann map[types.Object]Annotation
	// bad collects malformed or misplaced directives per package path;
	// phasecheck (the vocabulary owner) reports them.
	bad map[string][]badDirective
}

// Ann returns the annotation attached to obj (the zero Annotation when
// none).
func (f *Facts) Ann(obj types.Object) Annotation {
	if f == nil || obj == nil {
		return Annotation{}
	}
	return f.ann[obj]
}

// BuildFacts scans the packages' declarations for //stashsim: directives.
func BuildFacts(pkgs ...*Package) *Facts {
	f := &Facts{
		ann: make(map[types.Object]Annotation),
		bad: make(map[string][]badDirective),
	}
	for _, pkg := range pkgs {
		f.addPackage(pkg)
	}
	return f
}

// factsFor returns the pass's facts, building single-package facts as a
// fallback so analyzers work when no driver installed a module-wide index.
func factsFor(pass *Pass) *Facts {
	if pass.Facts != nil {
		return pass.Facts
	}
	pass.Facts = BuildFacts(&Package{
		Path:  pass.PkgPath,
		Fset:  pass.Fset,
		Files: pass.Files,
		Types: pass.Pkg,
		Info:  pass.Info,
	})
	return pass.Facts
}

func (f *Facts) addPackage(pkg *Package) {
	// consumed tracks comment groups attached to a supported declaration;
	// any remaining //stashsim: comment is misplaced and reported.
	consumed := make(map[*ast.CommentGroup]bool)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				f.apply(pkg, pkg.Info.Defs[d.Name], "function "+d.Name.Name, consumed, d.Doc)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					tobj := pkg.Info.Defs[ts.Name]
					tann := f.apply(pkg, tobj, "type "+ts.Name.Name, consumed, doc, ts.Comment)
					f.applyMembers(pkg, ts, tann, consumed)
				}
			}
		}
		f.sweepMisplaced(pkg, file, consumed)
	}
}

// applyMembers distributes a type-level annotation over the struct's
// fields (or records interface-method directives), merging field-level
// directives over the inherited ones.
func (f *Facts) applyMembers(pkg *Package, ts *ast.TypeSpec, tann Annotation, consumed map[*ast.CommentGroup]bool) {
	var fields *ast.FieldList
	iface := false
	switch t := ts.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
		iface = true
	default:
		return
	}
	for _, fld := range fields.List {
		fann, bads := parseDirectives(consumed, fld.Doc, fld.Comment)
		what := "field"
		if iface {
			what = "interface method"
		}
		for _, b := range bads {
			f.bad[pkg.Path] = append(f.bad[pkg.Path], b)
		}
		for _, name := range fld.Names {
			obj := pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			merged := fann.merge(tann)
			if fann.Phase == "serial" {
				// An explicit serial override sheds any inherited owner:
				// serial state has no parallel-phase owner.
				merged.Owner = fann.Owner
			}
			if !iface {
				// Type-level noalloc makes no sense on data; keep it off
				// fields so only the explicit function form is consumed.
				merged.NoAlloc = fann.NoAlloc
			}
			if !merged.zero() {
				f.check(pkg, obj, what+" "+name.Name, merged, fld.Pos())
				f.ann[obj] = merged
			}
		}
	}
}

// apply parses the declaration's directive comments and records the
// annotation on obj, validating directive/declaration compatibility.
func (f *Facts) apply(pkg *Package, obj types.Object, what string, consumed map[*ast.CommentGroup]bool, groups ...*ast.CommentGroup) Annotation {
	ann, bads := parseDirectives(consumed, groups...)
	for _, b := range bads {
		f.bad[pkg.Path] = append(f.bad[pkg.Path], b)
	}
	if ann.zero() || obj == nil {
		return ann
	}
	f.check(pkg, obj, what, ann, obj.Pos())
	f.ann[obj] = ann
	return ann
}

// check validates that the annotation makes sense on this kind of object.
func (f *Facts) check(pkg *Package, obj types.Object, what string, ann Annotation, pos token.Pos) {
	switch obj.(type) {
	case *types.Func:
		if ann.Owner != "" {
			f.bad[pkg.Path] = append(f.bad[pkg.Path], badDirective{pos,
				fmt.Sprintf("//stashsim:owner does not apply to %s; owner marks state, not code", what)})
		}
	default:
		if ann.NoAlloc {
			f.bad[pkg.Path] = append(f.bad[pkg.Path], badDirective{pos,
				fmt.Sprintf("//stashsim:noalloc does not apply to %s; it marks functions", what)})
		}
	}
	if _, isField := obj.(*types.Var); ann.State != "" && !isField {
		f.bad[pkg.Path] = append(f.bad[pkg.Path], badDirective{pos,
			fmt.Sprintf("//stashsim:%s does not apply to %s; it marks struct fields the state walk leaves out", ann.State, what)})
	}
	if ann.Phase == "serial" && ann.Owner != "" {
		f.bad[pkg.Path] = append(f.bad[pkg.Path], badDirective{pos,
			fmt.Sprintf("%s is annotated both phase serial and owner %s; serial state has no parallel-phase owner", what, ann.Owner)})
	}
}

// parseDirectives extracts the stashsim directives from the comment
// groups, marking each group consumed (even when it only carries prose:
// consumption is per-group, detection per-line).
func parseDirectives(consumed map[*ast.CommentGroup]bool, groups ...*ast.CommentGroup) (Annotation, []badDirective) {
	var ann Annotation
	var bads []badDirective
	for _, g := range groups {
		if g == nil {
			continue
		}
		consumed[g] = true
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			body := strings.TrimPrefix(c.Text, directivePrefix)
			// An optional trailing " -- reason" documents the annotation.
			reason := ""
			if i := strings.Index(body, " -- "); i >= 0 {
				body, reason = body[:i], strings.TrimSpace(body[i+4:])
			}
			fields := strings.Fields(body)
			if len(fields) == 0 {
				bads = append(bads, badDirective{c.Pos(), "empty //stashsim: directive"})
				continue
			}
			switch fields[0] {
			case "phase":
				if len(fields) != 2 || (fields[1] != "serial" && fields[1] != "parallel") {
					bads = append(bads, badDirective{c.Pos(),
						fmt.Sprintf("%q: //stashsim:phase takes exactly one of serial|parallel", c.Text)})
					continue
				}
				ann.Phase = fields[1]
			case "owner":
				if len(fields) != 2 || (fields[1] != "worker" && fields[1] != "partition") {
					bads = append(bads, badDirective{c.Pos(),
						fmt.Sprintf("%q: //stashsim:owner takes exactly one of worker|partition", c.Text)})
					continue
				}
				ann.Owner = fields[1]
			case "noalloc":
				if len(fields) != 1 {
					bads = append(bads, badDirective{c.Pos(),
						fmt.Sprintf("%q: //stashsim:noalloc takes no argument", c.Text)})
					continue
				}
				ann.NoAlloc = true
			case "derived", "transient":
				if len(fields) != 1 || reason == "" {
					bads = append(bads, badDirective{c.Pos(),
						fmt.Sprintf("%q: //stashsim:%s takes no argument and needs a reason after \" -- \"", c.Text, fields[0])})
					continue
				}
				ann.State = fields[0]
			default:
				bads = append(bads, badDirective{c.Pos(),
					fmt.Sprintf("unknown stashsim directive %q (known: phase, owner, noalloc, derived, transient)", fields[0])})
			}
		}
	}
	return ann, bads
}

// sweepMisplaced reports //stashsim: comments that were not attached to a
// function, type, struct field or interface method declaration — a
// directive floating in a body or above an unsupported declaration
// silently enforces nothing, which is worse than an error.
func (f *Facts) sweepMisplaced(pkg *Package, file *ast.File, consumed map[*ast.CommentGroup]bool) {
	for _, g := range file.Comments {
		if consumed[g] {
			continue
		}
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, directivePrefix) {
				f.bad[pkg.Path] = append(f.bad[pkg.Path], badDirective{c.Pos(),
					"misplaced //stashsim: directive: it must document a function, type, struct field or interface method declaration"})
			}
		}
	}
}
