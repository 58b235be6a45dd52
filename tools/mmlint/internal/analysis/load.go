package analysis

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
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader
// needs. Export is the build-cache export-data file for the compiled
// package; the gc importer reads dependency types from it, so loading
// needs no network and no source type-checking of the standard library.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns (resolved relative to
// dir) and returns them in `go list` order. Test files are not loaded —
// mmlint guards the simulator's production invariants, and test code
// legitimately uses wall-clock time and ad-hoc concurrency.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var module []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			module = append(module, p)
		}
	}

	// Every non-standard package, target or dependency, is type-checked
	// from source (go list -deps orders dependencies first), and imports
	// of them resolve to that one copy. A types.Object then has a single
	// identity across the module, which module analyzers rely on; only
	// the standard library comes from export data.
	fset := token.NewFileSet()
	std := exportImporter(fset, exports)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*Package
	for _, lp := range module {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		pkg, err := typecheck(fset, lp.ImportPath, lp.Dir, lp.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typecheck parses and type-checks one package from source.
func typecheck(fset *token.FileSet, path, dir string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// NewInfo returns a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// ExportImporter returns a types.Importer that reads dependency types
// from gc export-data files, keyed by import path. The atest harness
// uses it for standard-library imports in fixture packages.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return exportImporter(fset, exports)
}

// exportImporter returns a types.Importer that reads dependency types
// from gc export-data files, keyed by import path.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// StdExports runs `go list -export` for the given standard-library
// packages (plus transitive deps) and returns the export-data file map.
// The fixture test harness uses it to resolve std imports in testdata
// packages without type-checking the standard library from source.
func StdExports(pkgs []string) (map[string]string, error) {
	if len(pkgs) == 0 {
		return map[string]string{}, nil
	}
	args := append([]string{"list", "-export", "-json", "-deps"}, pkgs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list std: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// IsInternalSimPath reports whether pkgPath is simulator-internal code —
// the scope where the determinism and simtime bans apply. Fixture
// packages under testdata mirror the real layout, so the check is a pure
// string-prefix test on the import path.
func IsInternalSimPath(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "repro/internal/")
}
