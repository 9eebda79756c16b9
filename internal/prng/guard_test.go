package prng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seededConstructors are the math/rand package functions that take their
// randomness from an explicit seed or source; every other package-level
// function reads the global, randomly seeded source.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// TestNoNondeterministicRandomness: no non-test Go file under internal/
// imports crypto/rand or calls a package-level math/rand function other
// than a seeded constructor. Either would make a run, and the snapshot
// it writes, depend on something other than (config, seed, window).
func TestNoNondeterministicRandomness(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			switch ipath {
			case "crypto/rand":
				t.Errorf("%s imports crypto/rand", fset.Position(imp.Pos()))
			case "math/rand":
				name := "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				checkGlobalRandCalls(t, fset, f, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkGlobalRandCalls reports every call in f of a package-level
// function of math/rand, imported as pkg, that is not a seeded
// constructor. A local variable that shadows pkg resolves to an object,
// so it is not a package reference.
func checkGlobalRandCalls(t *testing.T, fset *token.FileSet, f *ast.File, pkg string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && id.Obj == nil && !seededConstructors[sel.Sel.Name] {
			t.Errorf("%s calls %s.%s, which reads the global random source", fset.Position(call.Pos()), pkg, sel.Sel.Name)
		}
		return true
	})
}
