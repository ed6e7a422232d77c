// Command deadcode fails when a function declared under internal/ is
// reached by no main package of the repository, unless a committed
// allowlist says why it stays.
//
// The method: every main package (the root module's and the benchmark's)
// is built with inlining off (-gcflags=all=-l), so each called function
// keeps its own symbol, and `go tool nm` lists what the linker retained.
// The union of those symbols is diffed against the go/ast function
// declarations of the non-test internal/ files. The linker keeps methods
// that might satisfy an interface, so the check errs towards calling code
// live: it never flags a function a binary runs.
//
// The allowlist (testdata/deadcode.allow) holds one symbol per line, then
// the rule it stays under:
//
//	obs.(*Manual).Advance  shared-test: fake clock the serve and obs tests step
//
// The rules are oracle (a reference implementation tests compare
// against), seam (a hook that lets a test substitute a fake) and
// shared-test (test infrastructure several packages' tests use). An entry
// that a binary now reaches, or that names no declared function, is stale
// and fails the check too.
//
// Run it from the repository root: go run ./cmd/deadcode
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// modulePrefix is the import-path prefix of the checked packages; symbols
// and allowlist entries are written relative to it.
const modulePrefix = "repro/internal/"

const allowFile = "testdata/deadcode.allow"

// rules are the reasons an unreachable function may stay.
var rules = map[string]bool{"oracle": true, "seam": true, "shared-test": true}

// decl is one declared function: its symbol relative to modulePrefix
// (pkg.Func, pkg.Type.Method or pkg.(*Type).Method) and where it is.
type decl struct {
	Sym string
	Pos string
}

// fileDecls returns the function declarations of one Go source file of the
// package at import path pkg, as nm would name them.
func fileDecls(fset *token.FileSet, pkg, filename string, src any) ([]decl, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	rel := strings.TrimPrefix(pkg, modulePrefix)
	var out []decl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
			continue
		}
		sym := rel + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			sym = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		p := fset.Position(fd.Pos())
		out = append(out, decl{Sym: sym, Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)})
	}
	return out, nil
}

// recvName renders a receiver type as nm does, without type parameters:
// T for a value receiver, (*T) for a pointer receiver.
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// stripTypeArgs removes every bracketed instantiation from a symbol, so
// (*EventQueue[go.shape.func(float64)]).Pop reads (*EventQueue).Pop.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// nmSymbols adds to reach the text symbols of modulePrefix packages in
// `go tool nm` output, relative to modulePrefix, without type arguments
// and without the .abi0 suffix of assembly functions.
func nmSymbols(out string, reach map[string]bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		sym := strings.Join(f[2:], " ")
		if !strings.HasPrefix(sym, modulePrefix) {
			continue
		}
		sym = strings.TrimSuffix(strings.TrimPrefix(sym, modulePrefix), ".abi0")
		reach[stripTypeArgs(sym)] = true
	}
}

// reached reports whether a binary holds the declared symbol. A value
// receiver's method also counts as reached through its pointer wrapper.
func reached(sym string, reach map[string]bool) bool {
	if reach[sym] {
		return true
	}
	pkg, rest, ok := strings.Cut(sym, ".")
	if typ, m, ok2 := strings.Cut(rest, "."); ok && ok2 && !strings.HasPrefix(typ, "(") {
		return reach[pkg+".(*"+typ+")."+m]
	}
	return false
}

// parseAllow reads allowlist text: one symbol per line, then `rule: why`.
// Blank lines and lines starting with # are skipped.
func parseAllow(text string) (map[string]string, []string) {
	allow := map[string]string{}
	var bad []string
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		rule, why, ok := strings.Cut(reason, ":")
		switch {
		case !ok || !rules[rule] || strings.TrimSpace(why) == "":
			bad = append(bad, fmt.Sprintf("%s:%d: %q needs a reason `oracle|seam|shared-test: why`", allowFile, i+1, sym))
		case allow[sym] != "":
			bad = append(bad, fmt.Sprintf("%s:%d: %q listed twice", allowFile, i+1, sym))
		default:
			allow[sym] = reason
		}
	}
	return allow, bad
}

// check diffs the declarations against the reachable symbols and the
// allowlist. It returns one message per unreachable function that is not
// allowed and per allowlist entry that is reachable or undeclared.
func check(decls []decl, reach map[string]bool, allow map[string]string) []string {
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Sym] = true
		if reached(d.Sym, reach) || allow[d.Sym] != "" {
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s is reached by no binary", d.Pos, d.Sym))
	}
	var stale []string
	for sym := range allow {
		switch {
		case !declared[sym]:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: no such function", allowFile, sym))
		case reached(sym, reach):
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: a binary reaches it", allowFile, sym))
		}
	}
	sort.Strings(stale)
	return append(bad, stale...)
}

// goCmd runs the go tool in dir and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

// reachable builds every main package of the modules rooted at dirs and
// returns the union of their internal/ symbols.
func reachable(tmp string, dirs ...string) (map[string]bool, int, error) {
	reach := map[string]bool{}
	n := 0
	for _, dir := range dirs {
		out, err := goCmd(dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
		if err != nil {
			return nil, 0, err
		}
		for _, pkg := range strings.Fields(out) {
			bin := filepath.Join(tmp, fmt.Sprintf("main%d", n))
			n++
			if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, pkg); err != nil {
				return nil, 0, err
			}
			syms, err := goCmd(dir, "tool", "nm", bin)
			if err != nil {
				return nil, 0, err
			}
			nmSymbols(syms, reach)
			// Keep one binary on disk at a time; run removes tmp at exit.
			_ = os.Remove(bin)
		}
	}
	return reach, n, nil
}

// declarations parses the non-test Go files of every internal/ package
// that the current build configuration compiles.
func declarations() ([]decl, error) {
	out, err := goCmd(".", "list", "-json", "./internal/...")
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var p struct {
			Dir, ImportPath string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		for _, f := range p.GoFiles {
			path, err := filepath.Rel(root, filepath.Join(p.Dir, f))
			if err != nil {
				return nil, err
			}
			ds, err := fileDecls(fset, p.ImportPath, path, nil)
			if err != nil {
				return nil, err
			}
			decls = append(decls, ds...)
		}
	}
	return decls, nil
}

// run returns the findings and a one-line summary of a clean pass.
func run() ([]string, string, error) {
	text, err := os.ReadFile(allowFile)
	if err != nil {
		return nil, "", err
	}
	allow, bad := parseAllow(string(text))
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)
	reach, mains, err := reachable(tmp, ".", "perfbench")
	if err != nil {
		return nil, "", err
	}
	decls, err := declarations()
	if err != nil {
		return nil, "", err
	}
	bad = append(bad, check(decls, reach, allow)...)
	return bad, fmt.Sprintf("%d mains reach all %d internal/ functions but the %d allowlisted",
		mains, len(decls)-len(allow), len(allow)), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("deadcode: ")
	bad, summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "deadcode:", b)
	}
	if len(bad) > 0 {
		log.Fatalf("%d findings", len(bad))
	}
	fmt.Println("deadcode:", summary)
}
