package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const fixture = `package serve

type EventQueue[E any] struct{ h []E }

func (q *EventQueue[E]) Push(t float64, ev E) {}
func (q *EventQueue[E]) Pop() (float64, E)    { var e E; return 0, e }
func (q *EventQueue[E]) Len() int             { return len(q.h) }

type Health struct{}

func (h Health) Ready() bool   { return true }
func (h *Health) Latency() int { return 0 }

func NewService() {}
func oracle()     {}
func init()       {}
`

// nmOut is `go tool nm` output of a binary that links the fixture's
// NewService, its generic queue through one instantiation, and Ready only
// through the pointer wrapper the compiler generates for a value method.
const nmOut = `  4c1a20 T repro/internal/serve.(*EventQueue[go.shape.func(float64)]).Pop
  4c1b40 T repro/internal/serve.(*EventQueue[go.shape.func(float64)]).Push
  4c1c00 T repro/internal/serve.(*Health).Ready
  4c1d00 T repro/internal/serve.NewService
  4c1e00 T repro/internal/serve.NewService.func1
  4c1f00 T repro/internal/par.dotAVX2.abi0
  8c3f50 D repro/internal/serve.unused
  404360 T runtime.main
`

func fixtureDecls(t *testing.T) []decl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "serve.go", fixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	return funcDecls(fset, "repro/internal/serve", f)
}

const fieldFixture = `package crossbar

type Config struct {
	BL        int
	ReadNoise float64
	Update    UpdateMode
	Name, Tag string
	hidden    bool
	Plan
	Limit *int
}

type Pair struct{ Lo, Hi float64 }

type Mode int
`

func fixtureFields(t *testing.T) []decl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "config.go", fieldFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fieldDecls(fset, "repro/internal/crossbar", f)
}

func TestFieldDecls(t *testing.T) {
	ds := fixtureFields(t)
	var got []string
	for _, d := range ds {
		if !d.Field {
			t.Errorf("%s not marked as a field", d.Sym)
		}
		got = append(got, d.Sym)
	}
	want := []string{
		"crossbar.Config.BL", "crossbar.Config.ReadNoise",
		"crossbar.Config.Name", "crossbar.Config.Tag",
		"crossbar.Pair.Lo", "crossbar.Pair.Hi",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fields %v, want %v", got, want)
	}
}

// TestAssignedFields covers each form of assignment the field check
// counts, and the reads it must not count.
func TestAssignedFields(t *testing.T) {
	for name, tc := range map[string]struct {
		src  string
		want []string
	}{
		"composite-literal key": {`var c = crossbar.Config{BL: 31}`, []string{"BL"}},
		"assignment":            {`func f(c *crossbar.Config) { c.ReadNoise = 0.1 }`, []string{"ReadNoise"}},
		"op-assignment": {`func f(c *crossbar.Config) { c.BL, n = 3, 1; (c.Name) += "x" }`,
			[]string{"BL", "Name"}},
		"inc/dec":         {`func f(c *crossbar.Config) { c.BL++; c.Tag-- }`, []string{"BL", "Tag"}},
		"address":         {`func f(c *crossbar.Config) { flag.Float64Var(&c.ReadNoise, "n", 0, "") }`, []string{"ReadNoise"}},
		"unkeyed literal": {`var p, b = &crossbar.Pair{0, 1}, Box[int]{2}`, []string{"Box{}", "Pair{}"}},
		"unkeyed literal, type elided": {`var ps = map[string][]*crossbar.Pair{"a": {{0, 1}}}`,
			[]string{"Pair{}"}},
		"reads": {`func f(c crossbar.Config) float64 { n := c.BL; g(&c); _ = crossbar.Config{}; return c.ReadNoise }`,
			nil},
		"non-struct literals": {`var v = []float64{1, 2}; var m = map[int]int{1: 2}`, nil},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "user.go", "package user\n"+tc.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		set := map[string]bool{}
		assignedFields(f, set)
		var got []string
		for n := range set {
			got = append(got, n)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: assigned %v, want %v", name, got, tc.want)
		}
	}
}

func TestFileDeclsNamesAsNm(t *testing.T) {
	var got []string
	for _, d := range fixtureDecls(t) {
		got = append(got, d.Sym)
	}
	want := []string{
		"serve.(*EventQueue).Push", "serve.(*EventQueue).Pop", "serve.(*EventQueue).Len",
		"serve.Health.Ready", "serve.(*Health).Latency", "serve.NewService", "serve.oracle",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declarations %v, want %v", got, want)
	}
}

func TestNmSymbols(t *testing.T) {
	reach := map[string]bool{}
	nmSymbols(nmOut, reach)
	for _, sym := range []string{
		"serve.(*EventQueue).Pop", "serve.(*EventQueue).Push", "serve.(*Health).Ready",
		"serve.NewService", "par.dotAVX2",
	} {
		if !reach[sym] {
			t.Errorf("%s not read from nm output", sym)
		}
	}
	if reach["serve.unused"] || reach["runtime.main"] {
		t.Error("data symbols and other modules must not count")
	}
}

func TestCheck(t *testing.T) {
	reach := map[string]bool{}
	nmSymbols(nmOut, reach)
	decls := fixtureDecls(t)
	decls = append(decls, fixtureFields(t)...)
	assigned := map[string]bool{"BL": true, "Name": true, "Tag": true, "Pair{}": true}
	for name, tc := range map[string]struct {
		allow map[string]string
		want  []string
	}{
		"unlisted dead functions and fields fail": {
			want: []string{"serve.(*EventQueue).Len is reached", "serve.(*Health).Latency is reached",
				"serve.oracle is reached", "crossbar.Config.ReadNoise is assigned"},
		},
		"allowlisted dead functions and fields pass": {
			allow: map[string]string{
				"serve.(*EventQueue).Len": "shared-test: x", "serve.(*Health).Latency": "seam: x",
				"serve.oracle": "oracle: x", "crossbar.Config.ReadNoise": "seam: x",
			},
		},
		"stale entries fail": {
			allow: map[string]string{
				"serve.(*EventQueue).Len": "shared-test: x", "serve.(*Health).Latency": "seam: x",
				"serve.oracle": "oracle: x", "serve.NewService": "seam: now reached",
				"serve.Health.Ready": "seam: reached by its pointer wrapper", "serve.gone": "oracle: deleted",
				"crossbar.Config.ReadNoise": "seam: x", "crossbar.Config.BL": "seam: now assigned",
			},
			want: []string{"stale entry crossbar.Config.BL: a non-test file assigns it",
				"stale entry serve.Health.Ready: a binary reaches it", "stale entry serve.NewService: a binary reaches it",
				"stale entry serve.gone: no such"},
		},
	} {
		got := check(decls, reach, assigned, tc.allow)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %q, want %d findings", name, got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: finding %d is %q, want it to name %s", name, i, got[i], w)
			}
		}
	}
}

func TestParseAllow(t *testing.T) {
	allow, bad := parseAllow(`# comment

obs.NewManual  shared-test: the clock several packages' tests step
tensor.(*Matrix).Transpose oracle: MatVecT is tested against it
serve.f  because
serve.g  habit: not a rule
serve.h  seam:
obs.NewManual  seam: twice
`)
	if len(allow) != 2 || allow["tensor.(*Matrix).Transpose"] != "oracle: MatVecT is tested against it" {
		t.Fatalf("allow = %v", allow)
	}
	if len(bad) != 4 {
		t.Fatalf("bad = %q, want 4 findings", bad)
	}
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"serve.(*EventQueue[go.shape.func(float64)]).Pop":     "serve.(*EventQueue).Pop",
		"serve.Map[go.shape.string,go.shape.[]int].Get":       "serve.Map.Get",
		"serve.Keys[go.shape.map[string]int]":                 "serve.Keys",
		"serve.(*Service).Do":                                 "serve.(*Service).Do",
		"serve.(*EventQueue[go.shape.struct { a [2]int }]).X": "serve.(*EventQueue).X",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}
