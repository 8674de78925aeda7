package repro

// The dead-surface check: every exported top-level func, method, type, var
// and const under internal/ must be referenced by some non-test file of the
// module or of the bench/ harness, outside its own declaration. An export
// that only its tests use is surface to maintain with no caller; delete it,
// move it into a _test.go file, or list it in internal/deadsurface.allow
// with the reason it must stay (a test hook, or a method that only the
// standard library calls through an interface).
//
// The check reads syntax only (go/parser, go/ast). Package-level names are
// matched by import path and name; methods are matched on the selector name
// alone, whatever the receiver, so the check can miss an unused method but
// never flags a used one.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadSurfaceAllow names the allowlist, relative to the scanned root. Each
// non-comment line is "key reason": key is pkg.Name for a package-level
// name and pkg.Type.Method for a method, pkg being the path under internal/.
const deadSurfaceAllow = "internal/deadsurface.allow"

// TestDeadSurface runs the check on this repository.
func TestDeadSurface(t *testing.T) {
	problems, err := deadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestDeadSurfaceCheck runs the check on a miniature module that holds one
// case of each rule (testdata/deadsurface; its a.go says which names must
// be flagged).
func TestDeadSurfaceCheck(t *testing.T) {
	problems, err := deadSurface(filepath.Join("testdata", "deadsurface"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:7: a.OnlyTest: exported, but no non-test file references it",
		"internal/a/a.go:16: a.Recursive: exported, but no non-test file references it",
		"internal/a/a.go:24: a.Node: exported, but no non-test file references it",
		"internal/a/a.go:38: a.Codec.Now: exported, but no non-test file references it",
		"internal/a/a.go:44: a.Unbuilt: exported, but no non-test file references it",
		"internal/deadsurface.allow:3: a.Gone: stale entry, no such declaration",
		"internal/deadsurface.allow:4: a.Used: stale entry, referenced by non-test code",
	}
	if !reflect.DeepEqual(problems, want) {
		t.Errorf("problems:\n  %s\nwant:\n  %s", strings.Join(problems, "\n  "), strings.Join(want, "\n  "))
	}
}

// export is one exported top-level declaration under internal/.
type export struct {
	key      string    // allowlist key: pkg.Name or pkg.Type.Method
	at       string    // file:line of the name
	from, to token.Pos // its own declaration; references inside do not count
	used     bool
}

// deadSurface scans the Go files under root (whose go.mod names the module)
// and returns one line per unreferenced export and per stale allowlist
// entry, sorted.
func deadSurface(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type srcFile struct {
		ast *ast.File
		pkg string // import path
	}
	var files []srcFile
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{f, path.Join(module, filepath.ToSlash(rel))})
		return nil
	})
	if err != nil {
		return nil, err
	}

	internal := module + "/internal/"
	var exports []*export
	pkgNames := map[[2]string]*export{} // {import path, name} -> package-level export
	methods := map[string][]*export{}   // method name -> methods of any receiver
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, internal) {
			continue
		}
		short := strings.TrimPrefix(f.pkg, internal)
		// add records an exported name; recv is the receiver type of a
		// method, "" otherwise, and decl the declaration's own extent.
		add := func(id *ast.Ident, recv string, decl ast.Node) {
			if !id.IsExported() {
				return
			}
			pos := fset.Position(id.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			e := &export{at: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), from: decl.Pos(), to: decl.End()}
			exports = append(exports, e)
			if recv == "" {
				e.key = short + "." + id.Name
				pkgNames[[2]string{f.pkg, id.Name}] = e
			} else {
				e.key = short + "." + recv + "." + id.Name
				methods[id.Name] = append(methods[id.Name], e)
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvType(d.Recv)
				}
				add(d.Name, recv, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "", s)
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		var dotImports []string
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case imp.Name == nil:
				imports[path.Base(p)] = p
			case imp.Name.Name == ".":
				dotImports = append(dotImports, p)
			case imp.Name.Name != "_":
				imports[imp.Name.Name] = p
			}
		}
		use := func(e *export, at token.Pos) {
			if e != nil && (at < e.from || at >= e.to) {
				e.used = true
			}
		}
		// A name the file also declares locally may shadow an import, so a
		// selector on it counts as a method selector too.
		local := map[string]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					if id, ok := x.(*ast.Ident); ok && n.Tok == token.DEFINE {
						local[id.Name] = true
					}
				}
			case *ast.RangeStmt:
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if id, ok := x.(*ast.Ident); ok && n.Tok == token.DEFINE {
						local[id.Name] = true
					}
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					local[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					local[id.Name] = true
				}
			}
			return true
		})
		// Identifiers that name something rather than refer to it: declared
		// names, struct fields and parameters, method receivers (a type's
		// methods do not use the type), and import qualifiers.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						skip[x] = true
						use(pkgNames[[2]string{p, n.Sel.Name}], n.Sel.Pos())
						if !local[x.Name] {
							return true
						}
					}
				}
				for _, e := range methods[n.Sel.Name] {
					use(e, n.Sel.Pos())
				}
			case *ast.Ident:
				if !skip[n] {
					use(pkgNames[[2]string{f.pkg, n.Name}], n.Pos())
					for _, p := range dotImports {
						use(pkgNames[[2]string{p, n.Name}], n.Pos())
					}
				}
			}
			return true
		})
	}

	allowed, problems, err := readAllowlist(root)
	if err != nil {
		return nil, err
	}
	byKey := map[string]*export{}
	for _, e := range exports {
		byKey[e.key] = e
		if !e.used && allowed[e.key] == "" {
			problems = append(problems, e.at+": "+e.key+": exported, but no non-test file references it")
		}
	}
	for key, at := range allowed {
		switch e := byKey[key]; {
		case e == nil:
			problems = append(problems, at+": "+key+": stale entry, no such declaration")
		case e.used:
			problems = append(problems, at+": "+key+": stale entry, referenced by non-test code")
		}
	}
	sort.Slice(problems, func(i, j int) bool { return lineOrder(problems[i]) < lineOrder(problems[j]) })
	return problems, nil
}

// readAllowlist returns the allowlisted keys, each mapped to its
// file:line, and a problem for each entry without a reason or listed twice.
func readAllowlist(root string) (map[string]string, []string, error) {
	f, err := os.Open(filepath.Join(root, deadSurfaceAllow))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	allowed := map[string]string{}
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		at := fmt.Sprintf("%s:%d", deadSurfaceAllow, n)
		fields := strings.Fields(line)
		key := fields[0]
		switch {
		case len(fields) == 1:
			problems = append(problems, at+": "+key+": entry gives no reason")
		case allowed[key] != "":
			problems = append(problems, at+": "+key+": listed twice")
		default:
			allowed[key] = at
		}
	}
	return allowed, problems, sc.Err()
}

// modulePath returns the module path a go.mod declares.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// recvType returns the receiver's type name, without pointer or type
// parameters.
func recvType(recv *ast.FieldList) string {
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// lineOrder sorts "file:line: ..." problems by file, then numeric line.
func lineOrder(p string) string {
	file, rest, _ := strings.Cut(p, ":")
	line, _, _ := strings.Cut(rest, ":")
	n, _ := strconv.Atoi(line)
	return fmt.Sprintf("%s:%09d", file, n)
}
