package treadmarks_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/harness"
)

// The documents that describe the system. Every back-quoted Go identifier
// in them must name something in the source, and DESIGN's size table must
// be the one the harness runs.
var describingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docNameAllowed lists the back-quoted spans that look like Go identifiers
// but name something else: the checked-in bench files, file names,
// simulated process names, the standard library and the real GM library's
// C API.
var docNameAllowed = []*regexp.Regexp{
	regexp.MustCompile(`^BENCH_`),
	regexp.MustCompile(`\.(go|json|txt|md|mod|prof)$`),
	regexp.MustCompile(`^tmk\d+(\.g\d+)?$`),
	regexp.MustCompile(`^(sync|errors|sort|iter|runtime|testing|fmt|time|os|heap|crc32)\.`),
	regexp.MustCompile(`^gm_`),
}

func docNameIsAllowed(s string) bool {
	for _, re := range docNameAllowed {
		if re.MatchString(s) {
			return true
		}
	}
	return false
}

// goIdent matches a span that reads as a Go identifier or a selector chain,
// optionally called with no arguments.
var goIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)

// sourceIndex is what a document may name: every package, its top-level
// declarations, every type's fields and methods (and those it embeds), every
// other declared name, and every string literal the code uses as a value.
type sourceIndex struct {
	pkgs    map[string]map[string]bool   // package name → top-level names
	types   map[string][]string          // package name → its type names
	members map[string]map[string]string // type name → member name → the member's type name, if named
	embeds  map[string][]string          // type name → embedded type names
	vars    map[string][]string          // field, parameter or variable name → the type names it is declared with
	names   map[string]bool              // every declared name, string literal value and JSON key
}

func buildSourceIndex(t *testing.T, root string) *sourceIndex {
	t.Helper()
	ix := &sourceIndex{
		pkgs:    map[string]map[string]bool{},
		types:   map[string][]string{},
		members: map[string]map[string]string{},
		embeds:  map[string][]string{},
		vars:    map[string][]string{},
		names:   map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ix.add(f, filepath.Base(filepath.Dir(path)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// typeName is the name a field's type is known by: T, *T, pkg.T, []T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ArrayType:
		return typeName(e.Elt)
	}
	return ""
}

func (ix *sourceIndex) member(typ, name, of string) {
	if ix.members[typ] == nil {
		ix.members[typ] = map[string]string{}
	}
	ix.members[typ][name] = of
	ix.names[name] = true
}

func (ix *sourceIndex) add(f *ast.File, dir string) {
	top := ix.pkgs[f.Name.Name]
	if top == nil {
		top = map[string]bool{}
		ix.pkgs[f.Name.Name] = top
	}
	ix.names[f.Name.Name], ix.names[dir] = true, true
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
			} else {
				ix.member(typeName(d.Recv.List[0].Type), d.Name.Name, "")
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					ix.types[f.Name.Name] = append(ix.types[f.Name.Name], s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			var fields *ast.FieldList
			switch ty := n.Type.(type) {
			case *ast.StructType:
				fields = ty.Fields
			case *ast.InterfaceType:
				fields = ty.Methods
			}
			if fields == nil {
				break
			}
			for _, fl := range fields.List {
				if len(fl.Names) == 0 {
					ix.embeds[n.Name.Name] = append(ix.embeds[n.Name.Name], typeName(fl.Type))
					ix.member(n.Name.Name, typeName(fl.Type), typeName(fl.Type))
				}
				for _, name := range fl.Names {
					ix.member(n.Name.Name, name.Name, typeName(fl.Type))
				}
				if fl.Tag != nil {
					tag, _ := strconv.Unquote(fl.Tag.Value)
					ix.names[strings.Split(reflect.StructTag(tag).Get("json"), ",")[0]] = true
				}
			}
		case *ast.Field:
			for _, name := range n.Names {
				ix.vars[name.Name] = append(ix.vars[name.Name], typeName(n.Type))
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				ix.vars[name.Name] = append(ix.vars[name.Name], typeName(n.Type))
			}
		case *ast.Ident:
			if n.Obj != nil && n.Obj.Decl != nil {
				ix.names[n.Name] = true
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					ix.names[s] = true
				}
			}
		}
		return true
	})
	for name := range top {
		ix.names[name] = true
	}
}

// hasMember reports whether typ has the member, directly or through a type
// it embeds, and returns the member's type name.
func (ix *sourceIndex) hasMember(typ, name string, depth int) (string, bool) {
	if of, ok := ix.members[typ][name]; ok {
		return of, true
	}
	if depth < 4 {
		for _, e := range ix.embeds[typ] {
			if of, ok := ix.hasMember(e, name, depth+1); ok {
				return of, true
			}
		}
	}
	return "", false
}

// resolves reports whether a back-quoted name is something in the source:
// a declared name, a string the code uses, a builtin, or a selector chain
// that starts at a package, a type, or a field, parameter or variable of a
// known type and follows members from there. Past a type the index does not
// hold (the standard library's) the chain cannot be checked and is taken.
func (ix *sourceIndex) resolves(name string) bool {
	name = strings.TrimSuffix(name, "()")
	if ix.names[name] || types.Universe.Lookup(name) != nil {
		return true
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return false
	}
	var starts []string
	rest := parts[1:]
	switch top, isPkg := ix.pkgs[parts[0]]; {
	case isPkg && top[parts[1]]:
		starts, rest = []string{parts[1]}, parts[2:]
	case isPkg:
		starts = ix.types[parts[0]] // pkg.Method: a method of one of its types
	case ix.members[parts[0]] != nil:
		starts = []string{parts[0]}
	default:
		starts = ix.vars[parts[0]]
	}
	for _, typ := range starts {
		if ix.follows(typ, rest) {
			return true
		}
	}
	return false
}

// follows reports whether the member chain exists from typ.
func (ix *sourceIndex) follows(typ string, chain []string) bool {
	for _, p := range chain {
		if ix.members[typ] == nil && len(ix.embeds[typ]) == 0 {
			return typ != "" // a type outside the index
		}
		of, ok := ix.hasMember(typ, p, 0)
		if !ok {
			return false
		}
		typ = of
	}
	return true
}

// backQuoted returns each inline code span of a markdown file with its
// line, skipping fenced code blocks.
func backQuoted(t *testing.T, path string) (spans []string, lines []int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	fenced := false
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans, lines = append(spans, parts[i]), append(lines, n)
		}
	}
	return spans, lines
}

// TestDocIdentifiersResolve: every back-quoted Go identifier in the
// describing documents names a package, declaration, field, method or
// string value of the parsed source — so renaming or deleting a thing a
// document names fails here until the document follows.
func TestDocIdentifiersResolve(t *testing.T) {
	ix := buildSourceIndex(t, ".")
	for _, doc := range describingDocs {
		spans, lines := backQuoted(t, doc)
		for i, s := range spans {
			if goIdent.MatchString(s) && !ix.resolves(s) && !docNameIsAllowed(s) {
				t.Errorf("%s:%d: `%s` names nothing in the source", doc, lines[i], s)
			}
		}
	}
}

// TestDocCountsAreTheSource: every "N rules" in README and DESIGN is the
// number of ConfigRule constants validate.go declares, and every "N
// settable feature values" and "N settable leaves" is a length
// harness.ConfigSurface returns — the walk TestConfigSurface pins.
func TestDocCountsAreTheSource(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "internal/tmk/validate.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rules := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.ValueSpec); ok && typeName(s.Type) == "ConfigRule" {
			rules += len(s.Names)
		}
		return true
	})
	features, all := harness.ConfigSurface()
	want := map[string]int{"rules": rules, "settable feature values": len(features), "settable leaves": len(all)}
	count := regexp.MustCompile(`(\d+) (rules|settable feature values|settable leaves)\b`)
	seen := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		flat := strings.Join(strings.Fields(string(text)), " ")
		for _, m := range count.FindAllStringSubmatch(flat, -1) {
			seen[m[2]] = true
			if n, _ := strconv.Atoi(m[1]); n != want[m[2]] {
				t.Errorf("%s says %q, the source has %d", doc, m[0], want[m[2]])
			}
		}
	}
	for what := range want {
		if !seen[what] {
			t.Errorf("no document states how many %s there are", what)
		}
	}
}

// TestDesignSizeTableIsTheLadder: DESIGN §5's size table and its default
// sizes are what harness.SizeLadder and the apps' Default constructors run.
// A size is the leading number of the app's Size string (Z for the grids
// and the FFT, the city count for TSP).
func TestDesignSizeTableIsTheLadder(t *testing.T) {
	z := func(app apps.App) (n int) {
		fmt.Sscanf(app.Size(), "%d", &n)
		return n
	}
	names := map[string]string{"Jacobi": "jacobi", "SOR": "sor", "TSP": "tsp", "FFT": "3dfft"}
	defaults := map[string]apps.App{"Jacobi": apps.DefaultJacobi(), "SOR": apps.DefaultSOR(),
		"TSP": apps.DefaultTSP(), "FFT": apps.DefaultFFT3D()}

	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`(?m)^\| (\w+) \([^)]*\) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$`)
	rows := row.FindAllStringSubmatch(string(text), -1)
	if len(rows) != len(names) {
		t.Fatalf("DESIGN.md has %d size-table rows, want one per app (%d)", len(rows), len(names))
	}
	for _, r := range rows {
		ladder := harness.SizeLadder(names[r[1]])
		if len(ladder) != 4 {
			t.Fatalf("row %q: harness.SizeLadder(%q) has %d sizes, want 4", r[1], names[r[1]], len(ladder))
		}
		for i, app := range ladder {
			if got, _ := strconv.Atoi(r[2+i]); got != z(app) {
				t.Errorf("DESIGN.md %s S%d = %d, harness.SizeLadder runs %s", r[1], i+1, got, app.Size())
			}
		}
	}

	line := regexp.MustCompile(`Default \(Figure 4\) sizes: (.*)`).FindStringSubmatch(string(text))
	if line == nil {
		t.Fatal("DESIGN.md states no default sizes")
	}
	stated := regexp.MustCompile(`(Jacobi|SOR|TSP|FFT) (\d+)`).FindAllStringSubmatch(line[1], -1)
	if len(stated) != len(defaults) {
		t.Fatalf("DESIGN.md default sizes %q name %d apps, want %d", line[1], len(stated), len(defaults))
	}
	for _, s := range stated {
		if got, _ := strconv.Atoi(s[2]); got != z(defaults[s[1]]) {
			t.Errorf("DESIGN.md default %s %d, the Default constructor runs %s", s[1], got, defaults[s[1]].Size())
		}
	}
}
