// Package atest is mmlint's analysistest: it loads GOPATH-style fixture
// packages from a testdata/src tree, runs one analyzer over the named
// packages, and compares the findings against `// want "regex"` comments
// in the fixture source.
//
// Fixture packages may import each other (resolved from testdata/src —
// stub versions of repro/internal/... live there so the facts tables
// match by import path) and the standard library (resolved through the
// build cache's export data, see analysis.StdExports).
package atest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tools/mmlint/internal/analysis"
)

// Run checks analyzer a against the fixture packages at the given import
// paths under testdata/src. Fixture packages load with their _test.go
// files, so a fixture can show that test-only uses count for nothing.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newLoader(root)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	var pkgs []*analysis.Package
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	// One run over every named package: a module analyzer sees them all
	// at once, a package analyzer one at a time.
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	check(t, pkgs, diags)
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func check(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos) // the loader shares one FileSet
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses `// want "regex" ["regex" ...]` comments. The
// expectation is anchored to the comment's line.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range stringLits(rest) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

var litRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func stringLits(s string) []string { return litRE.FindAllString(s, -1) }

// loader resolves fixture packages from root and std packages from
// export data, caching across load calls so shared stubs type-check once.
type loader struct {
	root   string
	fset   *token.FileSet
	pkgs   map[string]*analysis.Package
	stdImp types.Importer
}

func newLoader(root string) (*loader, error) {
	std, err := stdImports(root)
	if err != nil {
		return nil, err
	}
	exports, err := analysis.StdExports(std)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &loader{
		root:   root,
		fset:   fset,
		pkgs:   make(map[string]*analysis.Package),
		stdImp: analysis.ExportImporter(fset, exports),
	}, nil
}

// stdImports scans every fixture file for imports that do not resolve
// inside the testdata tree.
func stdImports(root string) ([]string, error) {
	seen := make(map[string]bool)
	var std []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if seen[p] {
				continue
			}
			seen[p] = true
			if _, statErr := os.Stat(filepath.Join(root, p)); statErr != nil {
				std = append(std, p)
			}
		}
		return nil
	})
	return std, err
}

func (ld *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	pkg := &analysis.Package{Path: path, Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.pkgs[path] = pkg
	return pkg, nil
}

// Import makes the loader a types.Importer for fixture dependencies.
func (ld *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(ld.root, path)); err == nil {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.stdImp.Import(path)
}
