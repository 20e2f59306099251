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
	"unicode"

	"stashsim/internal/fault"
	"stashsim/internal/harness"
)

// TestDocsNameRealFlags holds the docs to the CLIs: every -flag given to
// stashsim or figures on a command line inside a fenced block of README.md,
// DESIGN.md or the verify skill must be one that CLI's defineFlags
// declares, and every -fault-plan file such a command names must load. In
// the prose of README.md and DESIGN.md, every backquoted -flag must be one
// of the two CLIs' or the go tool's. Renaming or deleting a flag, or
// breaking a documented plan, fails here until the docs follow.
func TestDocsNameRealFlags(t *testing.T) {
	defined := map[string]map[string]bool{
		"stashsim": flagNames(func(fs *flag.FlagSet) { defineFlags(fs, new(harness.Spec), new(cliOpts)) }),
		"figures":  figuresFlags(t),
	}
	// goToolFlags are the go tool's flags that the prose names on their own.
	goToolFlags := map[string]bool{"race": true}
	checked, plans := 0, 0
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
			for _, plan := range c.plans {
				plans++
				if _, err := fault.LoadPlan(filepath.Join("..", "..", plan)); err != nil {
					t.Errorf("%s:%d: %v", doc, c.line, err)
				}
			}
		}
		if strings.HasPrefix(doc, ".") {
			continue
		}
		for _, f := range proseFlags(string(b)) {
			checked++
			if !defined["stashsim"][f.name] && !defined["figures"][f.name] && !goToolFlags[f.name] {
				t.Errorf("%s:%d: no CLI has the flag -%s", doc, f.line, f.name)
			}
		}
	}
	if checked < 150 || plans < 3 {
		t.Fatalf("found only %d flags and %d plan files in the docs; is the scan broken?", checked, plans)
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
// starts on, the flags it gives and the fault plans it names.
type docCommand struct {
	cli   string
	line  int
	flags []string
	plans []string
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
			for i, w := range words[1:] {
				if strings.ContainsAny(w[:1], "<>") || strings.HasPrefix(w, "2>") {
					break
				}
				if name, ok := strings.CutPrefix(w, "-"); ok && name != "" && (name[0] < '0' || name[0] > '9') {
					name, val, hasVal := strings.Cut(name, "=")
					c.flags = append(c.flags, name)
					if name == "fault-plan" && !hasVal && i+2 < len(words) {
						val, hasVal = words[i+2], true
					}
					if name == "fault-plan" && hasVal {
						c.plans = append(c.plans, val)
					}
				}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// docFlag is a flag named in a doc's prose, and the line it is on.
type docFlag struct {
	name string
	line int
}

// proseFlags finds the flags a Markdown document names in backquotes
// outside its fenced blocks: each word of a code span that is "-" and a
// letter, up to its first character that cannot be in a flag name, where
// a word also ends at "/" (`-p/-a/-h`). A span that starts with a program
// other than stashsim or figures (`go test -fuzz …`, `grep -l …`) gives
// that program's flags, and is skipped.
func proseFlags(doc string) (flags []docFlag) {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	for off := 0; ; {
		open := strings.IndexByte(prose[off:], '`')
		if open < 0 {
			return flags
		}
		open += off + 1
		n := strings.IndexByte(prose[open:], '`')
		if n < 0 {
			return flags
		}
		span, line := prose[open:open+n], 1+strings.Count(prose[:open], "\n")
		off = open + n + 1
		words := strings.FieldsFunc(span, func(r rune) bool { return unicode.IsSpace(r) || r == '/' || r == '(' || r == ',' })
		if len(words) == 0 || !strings.HasPrefix(words[0], "-") && path.Base(words[0]) != "stashsim" && path.Base(words[0]) != "figures" {
			continue
		}
		for _, w := range words {
			name, ok := strings.CutPrefix(w, "-")
			if !ok || name == "" || !unicode.IsLetter(rune(name[0])) {
				continue
			}
			if end := strings.IndexFunc(name, func(r rune) bool { return r != '-' && !unicode.IsLetter(r) && !unicode.IsDigit(r) }); end >= 0 {
				name = name[:end]
			}
			flags = append(flags, docFlag{name, line})
		}
	}
}
