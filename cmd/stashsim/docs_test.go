package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"stashsim/internal/harness"
)

// TestDocsNameRealFlags holds the examples in the docs to the CLIs: every
// -flag given to stashsim or figures on a command line inside a fenced
// block of README.md, DESIGN.md or the verify skill must be one that CLI's
// defineFlags declares, so that renaming or deleting a flag fails here
// until the docs follow.
func TestDocsNameRealFlags(t *testing.T) {
	defined := map[string]map[string]bool{
		"stashsim": flagNames(func(fs *flag.FlagSet) { defineFlags(fs, new(harness.Spec), new(cliOpts)) }),
		"figures":  figuresFlags(t),
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range commandLines(string(b)) {
			for _, f := range c.flags {
				checked++
				if !defined[c.cli][f] {
					t.Errorf("%s:%d: %s has no flag -%s", doc, c.line, c.cli, f)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("found only %d flags on command lines in the docs; is the scan broken?", checked)
	}
}

// flagNames returns the names define declares on a fresh flag set.
func flagNames(define func(*flag.FlagSet)) map[string]bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	define(fs)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// figuresFlags returns the flags cmd/figures declares: the shared ones
// Spec.BindFlags binds, and the name — the first string literal — of every
// fs call in its defineFlags, read from the source since a test here cannot
// import another main package.
func figuresFlags(t *testing.T) map[string]bool {
	names := flagNames(new(harness.Spec).BindFlags)
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "figures", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var define *ast.FuncDecl
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "defineFlags" {
			define = fn
		}
	}
	if define == nil {
		t.Fatal("cmd/figures has no defineFlags")
	}
	ast.Inspect(define.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !isIdent(sel.X, "fs") {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names[name] = true
				break
			}
		}
		return true
	})
	return names
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// docCommand is one invocation of a CLI in a doc: which, the line it
// starts on, and the flags it gives.
type docCommand struct {
	cli   string
	line  int
	flags []string
}

// commandLines finds the stashsim and figures invocations in the fenced
// blocks of a Markdown document. A line ending in a backslash continues on
// the next, and a "#" starts a comment; a command is a shell pipeline
// segment whose program — after a "$ " prompt, "time" or "go run" — is a
// path ending in stashsim or figures, and its flags are the words starting
// with "-" up to the first redirection.
func commandLines(doc string) (cmds []docCommand) {
	fenced := false
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		line, start := lines[i], i+1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		line, _, _ = strings.Cut(line, "#")
		for _, seg := range strings.FieldsFunc(line, func(r rune) bool { return r == '|' || r == ';' || r == '&' }) {
			words := strings.Fields(seg)
			for len(words) > 0 && (words[0] == "$" || words[0] == "time") {
				words = words[1:]
			}
			if len(words) > 2 && words[0] == "go" && words[1] == "run" {
				words = words[2:]
			}
			if len(words) == 0 || path.Base(words[0]) != "stashsim" && path.Base(words[0]) != "figures" {
				continue
			}
			c := docCommand{cli: path.Base(words[0]), line: start}
			for _, w := range words[1:] {
				if strings.ContainsAny(w[:1], "<>") || strings.HasPrefix(w, "2>") {
					break
				}
				if name, ok := strings.CutPrefix(w, "-"); ok && name != "" && (name[0] < '0' || name[0] > '9') {
					name, _, _ = strings.Cut(name, "=")
					c.flags = append(c.flags, name)
				}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}
