// Command apicheck prints the exported API surface of a Go package in
// a stable, comment-free, sorted form — one declaration per block,
// with the unexported fields of struct types left out — for
// golden-file comparison. `make apicheck` diffs the root package's
// surface against testdata/api.golden, so any change to an exported
// name, signature, struct field or method lands as a reviewable diff
// and CI fails on unreviewed surface changes; `make apicheck-update`
// regenerates the golden after review.
//
// Usage:
//
//	apicheck [-dir .]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"slices"
	"sort"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "package directory to dump")
	flag.Parse()
	lines, err := surface(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: %v\n", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// surface parses the package in dir (tests excluded, comments dropped)
// and renders every exported declaration, sorted.
func surface(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				out = append(out, renderDecl(fset, decl)...)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// renderDecl returns the exported parts of one top-level declaration,
// each rendered as a single normalized block.
func renderDecl(fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return nil
		}
		d.Body = nil
		d.Doc = nil
		return []string{render(fset, d)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				s.Doc, s.Comment = nil, nil
				if st, ok := s.Type.(*ast.StructType); ok {
					st.Fields.List = slices.DeleteFunc(st.Fields.List, func(f *ast.Field) bool {
						return len(f.Names) > 0 && !slices.ContainsFunc(f.Names, (*ast.Ident).IsExported)
					})
				}
				one := &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{s}}
				out = append(out, render(fset, one))
			case *ast.ValueSpec:
				if vs := exportedValues(s); vs != nil {
					one := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{vs}}
					out = append(out, render(fset, one))
				}
			}
		}
		return out
	}
	return nil
}

// receiverExported reports whether a method's receiver type is
// exported (free functions trivially pass).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// exportedValues filters a const/var spec down to its exported names
// (values and types kept only when every name survives, which is the
// case throughout this codebase — specs mix exported and unexported
// names so rarely that dropping the whole spec otherwise is fine).
func exportedValues(s *ast.ValueSpec) *ast.ValueSpec {
	for _, n := range s.Names {
		if !n.IsExported() {
			return nil
		}
	}
	s.Doc, s.Comment = nil, nil
	return s
}

// render pretty-prints one declaration, collapsing it onto single
// lines per statement so the golden diffs cleanly.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	return buf.String()
}
