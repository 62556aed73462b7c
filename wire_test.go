package treadmarks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// wireVocabulary returns the names package msg declares as its wire
// vocabulary: every Kind constant and every field of Message.
func wireVocabulary(t *testing.T) (kinds, fields []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "msg", "msg.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				// A const block typed Kind by its first spec is the kind list.
				if d.Tok == token.CONST && typeName(d.Specs[0].(*ast.ValueSpec).Type) == "Kind" {
					for _, n := range s.Names {
						kinds = append(kinds, n.Name)
					}
				}
			case *ast.TypeSpec:
				if st, ok := s.Type.(*ast.StructType); ok && s.Name.Name == "Message" {
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							fields = append(fields, n.Name)
						}
					}
				}
			}
		}
	}
	return kinds, fields
}

// TestWireVocabularyIsUsed: every message kind and every Message field is
// used by some non-test code outside package msg — the engine, a substrate,
// a harness or a command. The conformance suites (internal/substrate/stest)
// are test support and do not count. A kind nothing sends or a field nothing
// fills is wire vocabulary that only its own tests keep alive; delete it with
// the feature that used it. KInvalid is exempt: it is the zero Kind, what an
// unset header holds, and names no message.
func TestWireVocabularyIsUsed(t *testing.T) {
	kinds, fields := wireVocabulary(t)
	if len(kinds) == 0 || len(fields) == 0 {
		t.Fatalf("found %d kinds and %d Message fields in internal/msg/msg.go", len(kinds), len(fields))
	}
	usedKinds := map[string]bool{"KInvalid": true}
	usedFields := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" ||
				path == filepath.Join("internal", "msg") || path == filepath.Join("internal", "substrate", "stest")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "msg" {
					usedKinds[n.Sel.Name] = true
				}
				usedFields[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					usedFields[k.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if !usedKinds[k] {
			t.Errorf("msg.%s: no non-test code outside package msg sends or handles this kind", k)
		}
	}
	for _, fl := range fields {
		if !usedFields[fl] {
			t.Errorf("msg.Message.%s: no non-test code outside package msg reads or fills this field", fl)
		}
	}
}
