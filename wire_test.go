package treadmarks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goFile is one parsed source file of the module.
type goFile struct {
	path string
	f    *ast.File
}

// parseModule parses every Go file of the module except those in hidden or
// testdata directories and those skip names (a skipped directory skips its
// whole tree).
func parseModule(t *testing.T, skip func(path string, dir bool) bool) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || skip(path, true)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || skip(path, false) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, goFile{path, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

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
				// A const block typed Kind by its first spec is the kind list;
				// a blank name is a retired kind's reserved slot.
				if d.Tok == token.CONST && typeName(d.Specs[0].(*ast.ValueSpec).Type) == "Kind" {
					for _, n := range s.Names {
						if n.Name != "_" {
							kinds = append(kinds, n.Name)
						}
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
	skip := func(path string, dir bool) bool {
		if dir {
			return path == filepath.Join("internal", "msg") || path == filepath.Join("internal", "substrate", "stest")
		}
		return strings.HasSuffix(path, "_test.go")
	}
	for _, gf := range parseModule(t, skip) {
		ast.Inspect(gf.f, func(n ast.Node) bool {
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

// TestEverySettingIsSet: every exported field of a layer's settings — the
// struct a zero-argument Default* function of myrinet, gm, sockets, a
// substrate or tmk returns, or a New* constructor of one takes — is set
// somewhere outside that function, by a selector assignment or a
// composite-literal key. Like TestWireVocabularyIsUsed, setters in tests
// and in the conformance suites (internal/substrate/stest) do not count: a
// value no run sets is the testbed's calibration, and that is a package
// constant, not a field (DESIGN.md §16). The walk goes by name.
func TestEverySettingIsSet(t *testing.T) {
	// gm.NewSystem takes gm.Params as the benchmark calls it, and every
	// substrate reads it back through System().Params().
	exempt := map[string]bool{"gm.Params": true}
	layer := func(dir string) bool {
		parts := strings.Split(dir, string(filepath.Separator))
		return len(parts) > 1 && parts[0] == "internal" &&
			slices.Contains([]string{"myrinet", "gm", "sockets", "substrate", "tmk"}, parts[1])
	}
	stest := filepath.Join("internal", "substrate", "stest")
	files := parseModule(t, func(path string, dir bool) bool { return dir && path == stest })

	// The settings structs, and the Default* functions that fill them.
	structs := map[string]*ast.StructType{} // dir/Type
	pkgDir := map[string]string{}           // package name → dir
	defaults := map[string]bool{}           // dir/Func
	var settings []string                   // dir/Type
	for _, gf := range files {
		dir := filepath.Dir(gf.path)
		if !layer(dir) || strings.HasSuffix(gf.path, "_test.go") {
			continue
		}
		pkgDir[gf.f.Name.Name] = dir
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							structs[dir+"/"+ts.Name.Name] = st
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil {
					continue
				}
				if strings.HasPrefix(d.Name.Name, "Default") &&
					d.Type.Params.NumFields() == 0 && d.Type.Results.NumFields() == 1 {
					if id, ok := d.Type.Results.List[0].Type.(*ast.Ident); ok {
						defaults[dir+"/"+d.Name.Name] = true
						settings = append(settings, dir+"/"+id.Name)
					}
				}
				if strings.HasPrefix(d.Name.Name, "New") {
					for _, fl := range d.Type.Params.List {
						switch ty := fl.Type.(type) {
						case *ast.Ident:
							settings = append(settings, dir+"/"+ty.Name)
						case *ast.SelectorExpr:
							if pkg, ok := ty.X.(*ast.Ident); ok {
								settings = append(settings, pkg.Name+"."+ty.Sel.Name)
							}
						}
					}
				}
			}
		}
	}

	set := map[string]bool{}
	for _, gf := range files {
		if strings.HasSuffix(gf.path, "_test.go") {
			continue
		}
		dir := filepath.Dir(gf.path)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Recv != nil || !defaults[dir+"/"+n.Name.Name]
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					set[k.Name] = true
				}
			}
			return true
		})
	}

	var checked []string
	for _, key := range settings {
		// A constructor's parameter from another package names it
		// pkg.Type; resolve it to that package's directory.
		if pkg, typ, ok := strings.Cut(key, "."); ok && !strings.Contains(key, "/") {
			key = pkgDir[pkg] + "/" + typ
		}
		st := structs[key]
		name := filepath.Base(filepath.Dir(key)) + "." + filepath.Base(key)
		if st == nil || exempt[name] || slices.Contains(checked, name) {
			continue
		}
		checked = append(checked, name)
		for _, fl := range st.Fields.List {
			for _, n := range fl.Names {
				if n.IsExported() && !set[n.Name] {
					t.Errorf("%s.%s: no non-test code outside its Default function sets it; make it a package constant", name, n.Name)
				}
			}
		}
	}
	if len(checked) == 0 {
		t.Fatal("found no settings struct returned by a Default function or taken by a New constructor")
	}
	t.Logf("settings checked: %v", checked)
}
