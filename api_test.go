package datamime_test

import (
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestExportedAPIGolden: the package's exported names — every exported
// constant, variable, type, function and method its non-test files declare,
// one "kind name" line each, plus one "field Type.Field type" line for each
// exported field of an exported struct type (aliases resolved), sorted — are
// testdata/api.golden. A name or field added, removed or retyped is a diff
// here; rewrite the golden with -update when it is meant.
func TestExportedAPIGolden(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names = append(names, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								names = append(names, d.Tok.String()+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	names = append(names, exportedFields(t, fset, files)...)
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestExportedAPIGolden -update` to write it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("the exported API drifted from %s (re-run with -update if intended)\n--- got ---\n%s", golden, got)
	}
}

// exportedFields type-checks the package from source and lists the exported
// fields of its exported struct types, each type written with its full
// package path.
func exportedFields(t *testing.T, fset *token.FileSet, files []*ast.File) []string {
	t.Helper()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("datamime", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	qual := types.RelativeTo(pkg)
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				lines = append(lines, "field "+name+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
			}
		}
	}
	return lines
}
