package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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

// exportAllowlist names the exports that may have no caller outside
// _test.go files, each with the reason it stays. A key is the package's
// path inside the module, a dot, and the name: "internal/sim.Signal" for
// a type, "internal/sim.Signal.FiredAt" for its method or field.
var exportAllowlist = map[string]string{
	"internal/sim.Signal.FiredAt":    "disk, ufs and pfs tests time a completion by it; the model reads completions through callbacks",
	"internal/ufs.FS.Array":          "ionode's breaker tests reach a server's member disks through it to inject faults",
	"internal/pfs.File.SetMode":      "the PFS setiomode call; no workload switches modes mid-file, TestSetModeMidFile pins it",
	"internal/pfs.FileSystem.Stat":   "the namespace's stat; no workload inspects a path, the namespace tests do",
	"internal/pfs.FileSystem.Remove": "the namespace's unlink, which reclaims stripe space; no workload deletes a file",
}

// TestEveryExportHasACaller type-checks every non-test package of the
// module, and benchsuite's non-test files as callers, and fails, naming
// file and line, on each exported func, method, type, var, const or
// struct field that no non-test file uses. A method that implements a
// method of an interface declared in the module, of error or of
// fmt.Stringer is exempt: its calls go through the interface. So is a
// name on exportAllowlist, but its entry fails when the name now has a
// non-test caller, when no test uses it either, or when it names
// nothing.
func TestEveryExportHasACaller(t *testing.T) {
	s := &exportScan{
		fset:     token.NewFileSet(),
		dirs:     map[string]string{"repro/benchsuite": "benchsuite"},
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
		used:     map[types.Object]bool{},
		testUsed: map[token.Pos]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchsuite") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err == nil {
			s.dirs[path.Join("repro", filepath.ToSlash(dir))] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range s.dirs {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for path, dir := range s.dirs {
		if err := s.testUses(path, dir); err != nil {
			t.Fatal(err)
		}
	}

	// The interfaces whose implementations are called through them.
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces = append(ifaces, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	for _, pkg := range s.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implements := func(recv types.Type, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	seen := map[string]bool{}
	check := func(key string, obj types.Object) {
		_, allowed := exportAllowlist[key]
		seen[key] = true
		at := s.fset.Position(obj.Pos())
		switch {
		case allowed && s.used[obj]:
			t.Errorf("%s: %s is allowlisted but has a caller; drop its entry", at, key)
		case allowed && !s.testUsed[obj.Pos()]:
			t.Errorf("%s: %s is allowlisted but not even a test uses it; delete it and its entry", at, key)
		case !allowed && !s.used[obj]:
			t.Errorf("%s: %s has no caller outside _test.go files", at, key)
		}
	}
	var fields func(prefix string, st *types.Struct)
	fields = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			check(prefix+"."+f.Name(), f)
			if inner, ok := f.Type().(*types.Struct); ok {
				fields(prefix+"."+f.Name(), inner)
			}
		}
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		if path != "repro/benchsuite" {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		pkg := s.pkgs[path]
		rel := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := rel + "." + name
			check(key, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !implements(named, m.Name()) {
						check(key+"."+m.Name(), m)
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				fields(key, st)
			}
		}
	}
	for key := range exportAllowlist {
		if !seen[key] {
			t.Errorf("allowlisted %s names no export; drop its entry", key)
		}
	}
}

// exportScan type-checks the module's packages from source, sharing one
// types.Package per import path so a use in one package resolves to the
// object its declaring package defined. It records every object a
// non-test file uses, and the declaration of every object a test file
// uses.
type exportScan struct {
	fset     *token.FileSet
	std      types.Importer
	dirs     map[string]string         // module import path -> directory
	pkgs     map[string]*types.Package // checked from the non-test files
	files    map[string][]*ast.File    // those files, by import path
	used     map[types.Object]bool
	testUsed map[token.Pos]bool
}

// Import implements types.Importer: module packages are checked once
// from their non-test files, everything else comes from the standard
// library's source.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := s.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		s.used[origin(obj)] = true
	}
	s.pkgs[path], s.files[path] = pkg, files
	return pkg, nil
}

// testUses checks the package at path again with its in-package test
// files, and its external test package, and records the declaration of
// every object they use. The test packages' own type errors (an external
// test calling a helper from export_test.go, which this check does not
// link in) are ignored: every use that still resolves is recorded.
func (s *exportScan) testUses(path, dir string) error {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return err
	}
	conf := &types.Config{Importer: s, Error: func(error) {}}
	for _, set := range []struct {
		path  string
		names []string
		base  []*ast.File
	}{
		{path, bp.TestGoFiles, s.files[path]},
		{path + "_test", bp.XTestGoFiles, nil},
	} {
		if len(set.names) == 0 {
			continue
		}
		files, err := s.parse(dir, set.names)
		if err != nil {
			return err
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		_, _ = conf.Check(set.path, s.fset, append(files, set.base...), info) // errors go to conf.Error
		for _, obj := range info.Uses {
			s.testUsed[origin(obj).Pos()] = true
		}
	}
	return nil
}

func (s *exportScan) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
