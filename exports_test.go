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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
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
// module: code that only tests reach belongs in a _test.go file. A
// method that implements a method of a named interface (error,
// fmt.Stringer, heap.Interface, ...) is exempt, because it is called
// through the interface.
func TestInternalExportsReferenced(t *testing.T) {
	s := loadScan(t)
	for _, f := range s.unreferenced() {
		t.Errorf("%s: %s is exported but no non-test file references it; delete it, move it into a _test.go file, or give exportAllowlist a reason", s.rel(f.pos), f.name)
	}
}

// fieldWriteAllowlist names the exported struct fields that
// TestExportedFieldsWritten accepts without a non-test writer, each
// with the reason it stays. A key is the import path, a dot, the type
// name, a dot and the field name.
var fieldWriteAllowlist = map[string]string{
	"profirt/internal/cpusim.Options.Jitter":             "the reference simulator's release jitter, which TestAnalysisBoundsSimulation drives to check the jitter-aware task bounds",
	"profirt/internal/cpusim.Options.Seed":               "seeds the jittered releases of the reference simulator that TestAnalysisBoundsSimulation drives",
	"profirt/internal/profibus.Config.Faults":            "the only way a simulation exercises the retry term of C_hi (TestBoundsHoldUnderRetries, sim_results.golden); the miss rule for a lost request is still open",
	"profirt/internal/profibus.FaultModel.CycleFailProb": "the failure probability behind Config.Faults, the only way a simulation exercises the retry term of C_hi",
	"profirt/internal/sched.Task.B":                      "the task model's blocking term (critical sections), public as profirt.Task",
}

// TestExportedFieldsWritten fails when an exported field of a
// package-level struct type in the root package or under internal/ has
// no writer in a non-test file of this module or of the bench/ module:
// a field that only tests set is a knob no caller turns, and code that
// reads it reads its zero value. A field counts as written when a
// non-test file names it as a composite-literal key or fills it
// positionally, assigns it (=, op=, ++, --), takes its address or
// calls a pointer-receiver method on it, also through any chain of
// selectors and index expressions (p.A[i].B = v writes B and A). A
// field with a json tag counts as written, because encoding/json fills
// it. Reads are not checked: callers and encoding/json read result
// fields.
func TestExportedFieldsWritten(t *testing.T) {
	s := loadScan(t)
	written := s.writtenFields()
	unmatched := maps.Clone(fieldWriteAllowlist)
	for _, f := range s.structFields() {
		_, allowed := fieldWriteAllowlist[f.key]
		delete(unmatched, f.key)
		name := strings.TrimPrefix(f.key, "profirt/")
		switch {
		case written[f.obj] && allowed:
			t.Errorf("%s: %s has a non-test writer; drop its fieldWriteAllowlist entry", s.rel(f.pos), name)
		case !written[f.obj] && !allowed:
			t.Errorf("%s: %s is exported but no non-test file sets it; delete it, unexport it, or give fieldWriteAllowlist a reason", s.rel(f.pos), name)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(unmatched)) {
		t.Errorf("fieldWriteAllowlist names %s, which is not an exported field in scope", key)
	}
}

var (
	scanOnce sync.Once
	scan     *exportScan
	scanErr  error
)

// loadScan type-checks this module and the bench/ module, and every
// dependency, from source, once per test binary: both scans read the
// same load. It uses only the standard library. The load takes a few
// seconds; under -race it takes five times as long, hence the build
// tag.
func loadScan(t *testing.T) *exportScan {
	t.Helper()
	scanOnce.Do(func() {
		s := &exportScan{
			fset:    token.NewFileSet(),
			listed:  map[string]*listedPackage{},
			checked: map[string]*types.Package{},
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		var roots []string
		for _, dir := range []string{".", "bench"} {
			own, err := s.list(dir)
			if err != nil {
				scanErr = err
				return
			}
			roots = append(roots, own...)
		}
		for _, path := range roots {
			s.check(path)
		}
		scan = s
	})
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if len(scan.errs) > 0 {
		for _, err := range scan.errs {
			t.Error(err)
		}
		t.Fatalf("%d type errors: the scan needs a clean load", len(scan.errs))
	}
	return scan
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
}

// exportScan type-checks packages from source and records the types,
// uses and selections in the module's own packages.
type exportScan struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	info    *types.Info // filled only for the module's own packages
	files   []*ast.File // the module's own non-test files
	errs    []error
}

// list runs `go list -deps -json ./...` in dir, records every package
// it names and returns the import paths of the module's own packages.
func (s *exportScan) list(dir string) ([]string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var own []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		s.listed[p.ImportPath] = p
		if inModule(p.ImportPath) {
			own = append(own, p.ImportPath)
		}
	}
	return own, nil
}

// rel shortens pos's file name to a path relative to the working
// directory, where the test runs.
func (s *exportScan) rel(pos token.Position) token.Position {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return pos
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
		s.files = append(s.files, files...)
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

// structField is one exported field of a package-level struct type in
// the scope of TestExportedFieldsWritten.
type structField struct {
	obj *types.Var
	key string
	pos token.Position
}

// structFields returns the exported fields of the package-level struct
// types declared in the root package or under internal/, minus those
// with a json tag, in source order.
func (s *exportScan) structFields() []structField {
	var out []structField
	for path, pkg := range s.checked {
		if path != "profirt" && !strings.HasPrefix(path, "profirt/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
					continue
				}
				out = append(out, structField{f, path + "." + name + "." + f.Name(), s.fset.Position(f.Pos())})
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

// writtenFields returns the struct fields that a non-test file of
// either module writes, in the sense of TestExportedFieldsWritten.
func (s *exportScan) writtenFields() map[types.Object]bool {
	written := map[types.Object]bool{}
	// path marks the field a selection picks and the embedded fields
	// it is promoted through.
	path := func(sel *types.Selection) {
		fields := sel.Index()
		if sel.Kind() == types.MethodVal {
			fields = fields[:len(fields)-1]
		}
		typ := sel.Recv()
		for _, i := range fields {
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			field := typ.Underlying().(*types.Struct).Field(i)
			written[origin(field)] = true
			typ = field.Type()
		}
	}
	// chain marks every field selected along a chain of selectors and
	// index expressions: p.A[i].B = v writes B and A.
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := s.info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				path(sel)
				e = x.X
			default:
				return
			}
		}
	}
	for _, file := range s.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				typ := s.info.Types[x].Type
				if typ == nil {
					return true
				}
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && s.info.Uses[id] != nil {
							written[origin(s.info.Uses[id])] = true
						}
					} else if i < st.NumFields() {
						written[origin(st.Field(i))] = true
					}
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, lhs := range x.Lhs {
						chain(lhs)
					}
				}
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					chain(x.Key)
					chain(x.Value)
				}
			case *ast.IncDecStmt:
				chain(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					chain(x.X)
				}
			case *ast.SelectorExpr:
				// x.M with M on *T and x addressable of type T takes
				// x's address implicitly.
				sel := s.info.Selections[x]
				if sel == nil || sel.Kind() != types.MethodVal {
					return true
				}
				recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv()
				if _, ptr := recv.Type().(*types.Pointer); !ptr {
					return true
				}
				if _, ptr := sel.Recv().Underlying().(*types.Pointer); ptr {
					return true
				}
				path(sel)
				chain(x.X)
			}
			return true
		})
	}
	return written
}
