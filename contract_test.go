package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// contractPackages are the model packages: everything a simulated result
// depends on. DESIGN.md §5 promises that they run one event at a time
// and read neither the wall clock nor a shared random source.
var contractPackages = []string{
	"sim", "mesh", "disk", "ufs", "ionode", "pfs", "prefetch",
	"workload", "machine", "stats", "trace", "twophase",
}

// osAllowed names the model files that may import os: LoadConfig reads a
// machine configuration from disk, before any simulation starts.
var osAllowed = map[string]bool{
	filepath.Join("internal", "machine", "config_json.go"): true,
}

// TestDeterminismContract scans the non-test files of the model
// packages and fails, naming file and line, on anything that could make
// a run depend on more than its inputs: a goroutine, a select or a
// channel operation; an import of sync or time; an import of os outside
// osAllowed; or a call to a package-level math/rand function, which
// reads the shared global source. rand.New and rand.NewSource build the
// seeded sources the models own, so they are allowed.
func TestDeterminismContract(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range contractPackages {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("package %s has no Go files", pkg)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range contractViolations(fset, path, f) {
				t.Error(v)
			}
		}
	}
}

// contractViolations returns one "file:line: what" message per breach of
// the contract in f.
func contractViolations(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, what string) {
		out = append(out, fset.Position(n.Pos()).String()+": "+what)
	}
	randName := ""
	for _, imp := range f.Imports {
		ipath, _ := strconv.Unquote(imp.Path.Value)
		switch {
		case ipath == "sync" || strings.HasPrefix(ipath, "sync/") || ipath == "time":
			report(imp, "imports "+ipath)
		case ipath == "os" && !osAllowed[path]:
			report(imp, "imports os")
		case ipath == "math/rand":
			randName = "rand"
			if imp.Name != nil {
				randName = imp.Name.Name
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n, "go statement")
		case *ast.SelectStmt:
			report(n, "select statement")
		case *ast.SendStmt:
			report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "channel receive")
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || randName == "" {
				break
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == randName &&
				sel.Sel.Name != "New" && sel.Sel.Name != "NewSource" {
				report(n, "calls package-level "+randName+"."+sel.Sel.Name)
			}
		}
		return true
	})
	return out
}
