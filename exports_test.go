//go:build !race

package profirt_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that
// TestInternalExportsReferenced accepts without a non-test reference,
// each with the reason it stays. A key is the import path, a dot and
// the name ("Type.Member" for a method or field); a bare import path
// exempts the whole package.
var exportAllowlist = map[string]string{
	"profirt/internal/stats.Table.Row":     "the only read access to the rows of profirt.Table, which RunExperiments and RunCampaign return",
	"profirt/internal/stats.Table.NumRows": "the only row count of profirt.Table, which RunExperiments and RunCampaign return",
	"profirt/internal/cpusim.JitterNone":   "names the zero JitterMode",
	"profirt/internal/lint/linttest":       "a helper package that only _test.go files import",
}

// TestInternalExportsReferenced fails when an exported package-level
// name, method or struct field declared under internal/ has no
// reference from a non-test file of this module or of the bench/
// module: code that only tests reach belongs in a _test.go file. It
// type-checks both modules and every dependency from source, so it
// uses only the standard library; a method that implements a method
// of a named interface (error, fmt.Stringer, heap.Interface, ...) is
// exempt, because it is called through the interface. The scan takes
// a few seconds; under -race it takes five times as long, hence the
// build tag.
func TestInternalExportsReferenced(t *testing.T) {
	s := &exportScan{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	var roots []string
	for _, dir := range []string{".", "bench"} {
		roots = append(roots, s.list(t, dir)...)
	}
	for _, path := range roots {
		s.check(path)
	}
	if len(s.errs) > 0 {
		for _, err := range s.errs {
			t.Error(err)
		}
		t.Fatalf("%d type errors: the scan needs a clean load", len(s.errs))
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.unreferenced() {
		if rel, err := filepath.Rel(wd, f.pos.Filename); err == nil {
			f.pos.Filename = rel
		}
		t.Errorf("%s: %s is exported but no non-test file references it; delete it, move it into a _test.go file, or give exportAllowlist a reason", f.pos, f.name)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
}

// exportScan type-checks packages from source and records the uses of
// objects in the module's own packages.
type exportScan struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	info    *types.Info // filled only for the module's own packages
	errs    []error
}

// list runs `go list -deps -json ./...` in dir, records every package
// it names and returns the import paths of the module's own packages.
func (s *exportScan) list(t *testing.T, dir string) []string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var own []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		s.listed[p.ImportPath] = p
		if inModule(p.ImportPath) {
			own = append(own, p.ImportPath)
		}
	}
	return own
}

func inModule(path string) bool {
	return path == "profirt" || strings.HasPrefix(path, "profirt/")
}

// check type-checks the package at path after its imports, once. The
// bodies of functions outside the module are skipped: only the
// module's references count, and declarations suffice to check them.
func (s *exportScan) check(path string) *types.Package {
	if path == "unsafe" {
		return types.Unsafe
	}
	if pkg, ok := s.checked[path]; ok {
		return pkg
	}
	lp, ok := s.listed[path]
	if !ok {
		s.errs = append(s.errs, fmt.Errorf("%s: not in the go list output", path))
		return nil
	}
	own := inModule(path)
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			s.errs = append(s.errs, err)
			continue
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[imp]; ok {
				imp = mapped
			}
			if pkg := s.check(imp); pkg != nil {
				return pkg, nil
			}
			return nil, fmt.Errorf("cannot load %s", imp)
		}),
		IgnoreFuncBodies:         !own,
		DisableUnusedImportCheck: !own,
		Sizes:                    types.SizesFor("gc", runtime.GOARCH),
		Error:                    func(err error) { s.errs = append(s.errs, err) },
	}
	var info *types.Info
	if own {
		info = s.info
	}
	pkg, _ := conf.Check(path, s.fset, files, info) // errors went to conf.Error
	s.checked[path] = pkg
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportFinding is one exported identifier nothing outside tests uses.
type exportFinding struct {
	pos  token.Position
	name string
}

// unreferenced returns the exported package-level names, methods and
// struct fields under internal/ that no recorded use reaches, minus
// interface methods and exportAllowlist, in source order.
func (s *exportScan) unreferenced() []exportFinding {
	used := map[types.Object]bool{}
	for _, obj := range s.info.Uses {
		used[origin(obj)] = true
	}
	// A promoted selection uses the embedded fields on its path.
	for _, sel := range s.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			field := typ.Underlying().(*types.Struct).Field(i)
			used[origin(field)] = true
			typ = field.Type()
		}
	}
	ifaces := s.interfacesByMethod()
	var out []exportFinding
	seen := map[types.Object]bool{}
	report := func(obj types.Object, key string) {
		if !obj.Exported() || used[obj] || seen[obj] {
			return
		}
		seen[obj] = true
		if _, ok := exportAllowlist[key]; !ok {
			out = append(out, exportFinding{s.fset.Position(obj.Pos()), strings.TrimPrefix(key, "profirt/internal/")})
		}
	}
	for path, pkg := range s.checked {
		if !strings.HasPrefix(path, "profirt/internal/") {
			continue
		}
		if _, ok := exportAllowlist[path]; ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, path+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				m := named.Method(i)
				if !implementsAny(named, ifaces[m.Name()]) {
					report(m, path+"."+name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					report(st.Field(i), path+"."+name+"."+st.Field(i).Name())
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfacesByMethod indexes the universe error and every named,
// non-generic interface of the checked packages by method name.
func (s *exportScan) interfacesByMethod() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		named := tn.Type().(*types.Named)
		it, ok := named.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || named.TypeParams().Len() > 0 {
			return
		}
		for i := range it.NumMethods() {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error"))
	for _, pkg := range s.checked {
		for _, name := range pkg.Scope().Names() {
			add(pkg.Scope().Lookup(name))
		}
	}
	return byName
}

// implementsAny reports whether named (or a pointer to it) implements
// one of ifaces, so that its method of the name they share is called
// through the interface.
func implementsAny(named *types.Named, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
