// Command deadcode fails when a function declared under internal/ is
// reached by no binary that a gate runs, or when a setting field declared
// there is assigned by no non-test file, unless a committed allowlist says
// why it stays.
//
// The roots are the benchmark's main package (perfbench) and every main
// package of the root module that a `$(GO) run ./…` command of the
// Makefile runs. A root-module main package that no such command runs is a
// finding of its own: a binary no target runs checks nothing, so it may not
// keep code alive.
//
// The method: every root is built with inlining off (-gcflags=all=-l), so
// each called function keeps its own symbol, and `go tool nm` lists what
// the linker retained. The union of those symbols is diffed against the
// go/ast function declarations of the non-test internal/ files. The linker
// keeps methods that might satisfy an interface, so the check errs towards
// calling code live: it never flags a function a root runs.
//
// The checked fields are the exported bool, string, integer and float
// fields of the structs of non-test internal/ files. A non-test file of
// the module or the benchmark assigns one as a composite-literal key, an
// assignment or inc/dec target, &x.F (as flag.IntVar takes it), or with
// an unkeyed literal of its struct. Fields and types match by name alone,
// so this check too errs towards live. A field no code sets is a knob only
// tests turn, and only tests reach its non-default code paths.
//
// The allowlist (testdata/deadcode.allow) holds one symbol per line, then
// the rule it stays under:
//
//	obs.(*Manual).Advance  shared-test: fake clock the serve and obs tests step
//
// The rules are oracle (a reference implementation tests compare
// against), seam (a hook that lets a test substitute a fake) and
// shared-test (test infrastructure several packages' tests use). An entry
// that is now reached or assigned, or that names no declared function or
// field, is stale and fails the check too.
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
	"go/types"
	"log"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// modulePrefix is the import-path prefix of the checked packages; symbols
// and allowlist entries are written relative to it.
const modulePrefix = "repro/internal/"

const allowFile = "testdata/deadcode.allow"

// rules are the reasons a dead function or field may stay.
var rules = map[string]bool{"oracle": true, "seam": true, "shared-test": true}

// decl is one checked declaration: its symbol relative to modulePrefix
// (pkg.Func, pkg.Type.Method or pkg.(*Type).Method for a function,
// pkg.Type.Field for a field), where it is, and whether it is a field.
type decl struct {
	Sym   string
	Pos   string
	Field bool
}

// funcDecls returns the function declarations of one file of the package
// at import path pkg, as nm would name them.
func funcDecls(fset *token.FileSet, pkg string, f *ast.File) []decl {
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
	return out
}

// basicType matches the predeclared types of the checked fields.
var basicType = regexp.MustCompile(`^(bool|string|byte|rune|u?int(8|16|32|64)?|uintptr|float32|float64)$`)

// fieldDecls returns the checked fields of the struct types one file of
// the package at import path pkg declares.
func fieldDecls(fset *token.FileSet, pkg string, f *ast.File) []decl {
	rel := strings.TrimPrefix(pkg, modulePrefix)
	var out []decl
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fl := range st.Fields.List {
				if id, ok := fl.Type.(*ast.Ident); !ok || !basicType.MatchString(id.Name) {
					continue
				}
				for _, n := range fl.Names {
					if n.IsExported() {
						p := fset.Position(n.Pos())
						out = append(out, decl{Sym: rel + "." + ts.Name.Name + "." + n.Name,
							Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), Field: true})
					}
				}
			}
		}
	}
	return out
}

// assignedFields adds to set the name of every field one file assigns as
// a composite-literal key, an assignment or inc/dec target, or the operand
// of &x.F, and T{} for every struct type T it builds an unkeyed literal
// of. A slice, array or map literal passes its element type on to the
// element literals that elide it.
func assignedFields(f *ast.File, set map[string]bool) {
	selector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			set[sel.Sel.Name] = true
		}
	}
	elided := map[ast.Expr]ast.Expr{} // literal element → the type its parent gives it
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				selector(l)
			}
		case *ast.IncDecStmt:
			selector(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selector(n.X)
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var key, elem ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elem = t.Elt
			case *ast.MapType:
				key, elem = t.Key, t.Value
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
					elided[kv.Key], e = key, kv.Value
				} else if elem == nil { // T{...}, pkg.T{...}, &T[A]{...}: mark T{}
					name := stripTypeArgs(strings.TrimLeft(types.ExprString(typ), "*"))
					set[name[strings.LastIndex(name, ".")+1:]+"{}"] = true
				}
				elided[e] = elem
			}
		}
		return true
	})
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

// live reports whether a binary reaches the declared function, or whether
// a non-test file assigns a field of the declared field's name or builds
// an unkeyed literal of a type of its struct's name.
func live(d decl, reach, assigned map[string]bool) bool {
	if d.Field {
		parts := strings.Split(d.Sym, ".") // pkg, Type, Field
		return assigned[parts[2]] || assigned[parts[1]+"{}"]
	}
	return reached(d.Sym, reach)
}

// check diffs the declarations against the reachable symbols, the
// assigned field names and the allowlist. It returns one message per dead
// function or field that is not allowed and per allowlist entry that is
// live or undeclared.
func check(decls []decl, reach, assigned map[string]bool, allow map[string]string) []string {
	var bad, stale []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Sym] = true
		dead, used := "is reached by no binary", "a binary reaches it"
		if d.Field {
			dead, used = "is assigned by no non-test file", "a non-test file assigns it"
		}
		switch isLive, allowed := live(d, reach, assigned), allow[d.Sym] != ""; {
		case isLive && allowed:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: %s", allowFile, d.Sym, used))
		case !isLive && !allowed:
			bad = append(bad, fmt.Sprintf("%s: %s %s", d.Pos, d.Sym, dead))
		}
	}
	for sym := range allow {
		if !declared[sym] {
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: no such function or field", allowFile, sym))
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

var (
	// goRun matches one `$(GO) run` command of a Makefile line and
	// captures the package it runs.
	goRun = regexp.MustCompile(`\$\(GO\) run\s+(\S+)`)
	// continued matches a backslash line continuation.
	continued = regexp.MustCompile(`\\\n\s*`)
)

// runRoots returns the packages the `$(GO) run` commands of a Makefile run,
// as slash paths relative to the repository root ("cmd/repro-all"). A line
// continued with a trailing backslash is read as one; comments and other
// go commands (build, test, vet) start no root.
func runRoots(makefile string) map[string]bool {
	runs := map[string]bool{}
	for _, line := range strings.Split(continued.ReplaceAllString(makefile, " "), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, m := range goRun.FindAllStringSubmatch(line, -1) {
			runs[path.Clean(m[1])] = true
		}
	}
	return runs
}

// runMains splits the root module's main packages (paths relative to the
// module root) into the roots a Makefile command runs and one finding for
// each other one.
func runMains(mains []string, runs map[string]bool) (roots, bad []string) {
	for _, m := range mains {
		if runs[m] {
			roots = append(roots, m)
		} else {
			bad = append(bad, fmt.Sprintf("%s: main package that no Makefile `$(GO) run` command runs", m))
		}
	}
	return roots, bad
}

// mainPackages lists the main packages of the module rooted at dir as
// paths relative to it ("cmd/repro-all", "." for the module root).
func mainPackages(dir string) ([]string, error) {
	out, err := goCmd(dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}} {{.Module.Path}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	var mains []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if pkg, mod, ok := strings.Cut(line, " "); ok {
			rel := "."
			if pkg != mod {
				rel = strings.TrimPrefix(pkg, mod+"/")
			}
			mains = append(mains, rel)
		}
	}
	sort.Strings(mains)
	return mains, nil
}

// reachable builds the main packages pkgs (paths relative to dir) of the
// module rooted at dir and adds their internal/ symbols to reach.
func reachable(tmp, dir string, pkgs []string, reach map[string]bool) error {
	for _, pkg := range pkgs {
		bin := filepath.Join(tmp, "main")
		if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, "./"+pkg); err != nil {
			return err
		}
		syms, err := goCmd(dir, "tool", "nm", bin)
		if err != nil {
			return err
		}
		nmSymbols(syms, reach)
		// Keep one binary on disk at a time; run removes tmp at exit.
		_ = os.Remove(bin)
	}
	return nil
}

// declarations parses the non-test Go files that the current build
// configuration compiles, of every package of the modules rooted at dirs.
// It returns the functions and checked fields the internal/ files declare
// and the names assignedFields collects from all of them.
func declarations(dirs ...string) (decls []decl, assigned map[string]bool, err error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	assigned = map[string]bool{}
	for _, dir := range dirs {
		out, err := goCmd(dir, "list", "-json", "./...")
		if err != nil {
			return nil, nil, err
		}
		dec := json.NewDecoder(strings.NewReader(out))
		for dec.More() {
			var p struct {
				Dir, ImportPath string
				GoFiles         []string
			}
			if err := dec.Decode(&p); err != nil {
				return nil, nil, err
			}
			for _, name := range p.GoFiles {
				rel, err := filepath.Rel(root, filepath.Join(p.Dir, name))
				if err != nil {
					return nil, nil, err
				}
				f, err := parser.ParseFile(fset, rel, nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				if strings.HasPrefix(p.ImportPath, modulePrefix) {
					decls = append(decls, funcDecls(fset, p.ImportPath, f)...)
					decls = append(decls, fieldDecls(fset, p.ImportPath, f)...)
				}
				assignedFields(f, assigned)
			}
		}
	}
	return decls, assigned, nil
}

// run returns the findings and a one-line summary of a clean pass.
func run() ([]string, string, error) {
	text, err := os.ReadFile(allowFile)
	if err != nil {
		return nil, "", err
	}
	allow, bad := parseAllow(string(text))
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, "", err
	}
	mains, err := mainPackages(".")
	if err != nil {
		return nil, "", err
	}
	roots, unrun := runMains(mains, runRoots(string(makefile)))
	bad = append(bad, unrun...)
	bench, err := mainPackages("perfbench")
	if err != nil {
		return nil, "", err
	}
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(tmp)
	reach := map[string]bool{}
	if err := reachable(tmp, ".", roots, reach); err != nil {
		return nil, "", err
	}
	if err := reachable(tmp, "perfbench", bench, reach); err != nil {
		return nil, "", err
	}
	decls, assigned, err := declarations(".", "perfbench")
	if err != nil {
		return nil, "", err
	}
	bad = append(bad, check(decls, reach, assigned, allow)...)
	return bad, fmt.Sprintf("%d Makefile-run and benchmark mains reach, and non-test files assign, all %d internal/ functions and checked fields but the %d allowlisted",
		len(roots)+len(bench), len(decls), len(allow)), nil
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
