package ladder_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed names the declarations under internal/ and cmd/ that
// no non-test code reaches on purpose, each with its reason. A key is
// the declaring package's path below the module root, then the
// receiver type for a method, then the name.
var deadAPIAllowed = map[string]string{
	"internal/circuit.NewMNA":          "oracle for FastModel; ROADMAP item 4 calls it from cmd/latmodel",
	"internal/circuit.MNA.Solve":       "oracle for FastModel; ROADMAP item 4 calls it from cmd/latmodel",
	"internal/circuit.UniformPattern":  "oracle input for the MNA; ROADMAP item 4 calls it from cmd/latmodel",
	"internal/circuit.WordlinePattern": "oracle input for the MNA; ROADMAP item 4 calls it from cmd/latmodel",
	"internal/reram.Store.RecountRow":  "oracle other packages' tests use; ROADMAP item 24's audit calls it",
	"internal/reram.Geometry.Encode":   "oracle other packages' tests use; ROADMAP item 24's audit calls it",
	"internal/chaos.Arm":               "harness: tests arm fault points",
	"internal/chaos.Disarm":            "harness: tests disarm fault points",
	"internal/chaos.Reset":             "harness: tests clear every fault point",
	"internal/chaos.Hits":              "harness: tests count fault point hits",
	"internal/metrics/promcheck.Lint":  "harness: tests lint Prometheus exposition",
}

// TestDeadAPI fails on any function, method, or package-level type,
// const or var declared under internal/ or cmd/ that no non-test code
// reaches, unless deadAPIAllowed names it, and on any allow-list entry
// that non-test code now reaches or that no longer exists. It
// type-checks every non-test file of this module and of perfbench/ (a
// module of its own that counts as a caller), reading the standard
// library from `go list -export` data.
//
// Reached means referenced from a root, or from a reached declaration,
// by its types.Object, so a method is told apart from a same-named
// method of another type. Roots are every declaration outside internal/
// and cmd/ (the public package, examples, perfbench), main and init
// functions. A method is also reached when its reached receiver type
// implements an interface of the program or its imports with that
// method.
func TestDeadAPI(t *testing.T) {
	prog := loadProgram(t, ".", "perfbench")
	live := prog.reach(nil)
	allowed := make([]types.Object, 0, len(deadAPIAllowed))
	var problems []string
	seen := map[string]bool{}
	for _, d := range prog.candidates {
		key := prog.key(d.obj)
		if _, ok := deadAPIAllowed[key]; !ok {
			continue
		}
		seen[key] = true
		allowed = append(allowed, d.obj)
		if live[d.obj] {
			problems = append(problems, fmt.Sprintf("%s: allow-listed, but non-test code now reaches it; drop its entry", key))
		}
	}
	for key := range deadAPIAllowed {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("%s: allow-listed, but no such declaration; drop its entry", key))
		}
	}
	live = prog.reach(allowed)
	for _, d := range prog.candidates {
		if !live[d.obj] {
			problems = append(problems, fmt.Sprintf("%s (%s, %s): no non-test code reaches it",
				prog.key(d.obj), kindOf(d.obj), prog.fset.Position(d.obj.Pos())))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Errorf("%d findings; delete each declaration only tests reach, move it into a _test.go file, "+
			"or allow-list it with a reason:\n\t%s", len(problems), strings.Join(problems, "\n\t"))
	}
}

// listedPackage is the part of `go list -json` output the checker reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
}

// decl is one package-level declaration: the object it declares and
// every object its syntax uses.
type decl struct {
	obj  types.Object
	uses []types.Object
}

type program struct {
	fset       *token.FileSet
	root       string // module root directory
	decls      map[types.Object]*decl
	candidates []*decl // declared under internal/ or cmd/
	roots      []types.Object
	ifaces     map[string][]*types.Interface // by method name
}

// loadProgram type-checks the non-test files of every package of the
// modules rooted at dirs (relative to the module root, the test's
// working directory). Packages outside them come from export data.
func loadProgram(t *testing.T, dirs ...string) *program {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var order []listedPackage
	exports := map[string]string{}
	listed := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = filepath.Join(root, dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", cmd.Dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("decoding go list output: %v", err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if !p.Standard && !listed[p.ImportPath] {
				listed[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}

	prog := &program{
		fset:   token.NewFileSet(),
		root:   root,
		decls:  map[types.Object]*decl{},
		ifaces: map[string][]*types.Interface{},
	}
	fromSource := map[string]*types.Package{}
	gc := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := fromSource[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	// go list -deps prints a package after everything it imports, so
	// each source package's imports are checked before it.
	for _, lp := range order {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, prog.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		fromSource[lp.ImportPath] = pkg
		prog.addPackage(lp, files, info)
	}

	// Every interface of the program and of the packages it imports,
	// named or literal, indexed by method name.
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				prog.addInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range fromSource {
		walk(p)
	}
	prog.addInterface(types.Universe.Lookup("error").Type())
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (prog *program) addInterface(typ types.Type) {
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		prog.ifaces[name] = append(prog.ifaces[name], iface)
	}
}

// addPackage records one source package's declarations, with the
// objects each one uses, and sorts them into candidates and roots.
func (prog *program) addPackage(lp listedPackage, files []*ast.File, info *types.Info) {
	rel, err := filepath.Rel(prog.root, lp.Dir)
	if err != nil {
		rel = lp.Dir
	}
	rel = filepath.ToSlash(rel)
	checked := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")

	usesIn := func(n ast.Node) []types.Object {
		var uses []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					uses = append(uses, origin(obj))
				}
			case *ast.InterfaceType:
				// Interface literals (parameter types, type switches)
				// are interfaces of the program too.
				if tv, ok := info.Types[n]; ok {
					prog.addInterface(tv.Type)
				}
			}
			return true
		})
		return uses
	}
	add := func(obj types.Object, n ast.Node) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		d := &decl{obj: obj, uses: usesIn(n)}
		prog.decls[obj] = d
		if !checked || lp.Name == "main" && obj.Name() == "main" {
			prog.roots = append(prog.roots, obj)
		} else {
			prog.candidates = append(prog.candidates, d)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					// init functions are not objects; their uses are roots.
					for _, u := range usesIn(d) {
						prog.roots = append(prog.roots, u)
					}
					continue
				}
				add(info.Defs[d.Name], d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(info.Defs[name], s)
						}
					}
				}
			}
		}
	}
}

// origin maps a method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// reach returns every declaration reachable from the program's roots
// and extra.
func (prog *program) reach(extra []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, obj := range prog.roots {
		mark(obj)
	}
	for _, obj := range extra {
		mark(obj)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		d := prog.decls[obj]
		if d == nil {
			continue
		}
		for _, u := range d.uses {
			mark(u)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range prog.implemented(tn) {
				mark(m)
			}
		}
	}
	return live
}

// implemented returns the methods through which tn's type, or a
// pointer to it, implements an interface of the program.
func (prog *program) implemented(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return nil
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	checked := map[*types.Interface]bool{}
	var methods []types.Object
	for i := 0; i < mset.Len(); i++ {
		for _, iface := range prog.ifaces[mset.At(i).Obj().Name()] {
			if checked[iface] {
				continue
			}
			checked[iface] = true
			if !types.Implements(ptr, iface) {
				continue
			}
			for j := 0; j < iface.NumMethods(); j++ {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), iface.Method(j).Name())
				if m != nil {
					methods = append(methods, origin(m))
				}
			}
		}
	}
	return methods
}

// key names obj as deadAPIAllowed does.
func (prog *program) key(obj types.Object) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "ladder"), "/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if n, ok := typ.(*types.Named); ok {
				return pkg + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

func kindOf(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}
