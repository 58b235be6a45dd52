// Package deadapi finds exported API under repro/internal/ that no
// non-test code uses. Every exported function and method declared there
// must be used by a non-test file somewhere in the module, or implement a
// method of an interface the program can see (a module interface, an
// exported standard-library interface, or error) — a call through the
// interface reaches it. Uses resolve through types.Info.Uses objects, so
// two methods that share a name on different types are told apart, and a
// function's references to itself do not keep it alive.
//
// A function that only tests call may stay when a test uses it as a
// reference — an oracle, a counter the tests read — and its doc comment
// carries `//mmlint:testref <reason>`. A bare waiver with no reason is a
// finding, and so is a waiver on a function non-test code already uses.
//
// deadapi is a module analyzer: it needs every package of the module at
// once, so only standalone `mmlint ./...` runs it. A separate module (such
// as bench/) is invisible to it; an internal/ function only such a module
// calls needs a waiver.
package deadapi

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/mmlint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "deadapi",
	Doc:       "flag exported internal/ functions and methods no non-test code uses (waiver: //mmlint:testref <reason>); standalone ./... only",
	RunModule: run,
}

func run(pass *analysis.ModulePass) error {
	used := make(map[*types.Func]bool)
	for _, pkg := range pass.Pkgs {
		collectUses(pkg, used)
	}
	ifaces := collectInterfaces(pass.Pkgs)

	for _, pkg := range pass.Pkgs {
		if !analysis.IsInternalSimPath(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			if inTestFile(pkg, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				live := used[fn] || implementsInterface(fn, ifaces)
				reason, waived := analysis.DocDirective(fd.Doc, "testref")
				switch {
				case waived && reason == "":
					pass.Reportf(fd.Name.Pos(), "//mmlint:testref on %s needs a reason: say which test uses it as a reference", name(fn))
				case waived && live:
					pass.Reportf(fd.Name.Pos(), "%s has a non-test use: drop its //mmlint:testref waiver", name(fn))
				case !waived && !live:
					pass.Reportf(fd.Name.Pos(), "exported %s has no non-test use: delete it, move it to a _test.go file, or waive a test reference with //mmlint:testref <reason>", name(fn))
				}
			}
		}
	}
	return nil
}

// collectUses marks every function a non-test file of pkg refers to,
// except a function's references to itself.
func collectUses(pkg *analysis.Package, used map[*types.Func]bool) {
	for _, file := range pkg.Files {
		if inTestFile(pkg, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = pkg.Info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
}

// collectInterfaces indexes, by method name, every interface the program
// can call through: each interface type the module's non-test code
// declares or mentions, the exported interfaces of every package it
// imports (fmt reaches String through fmt.Stringer without the module
// naming it), and error.
func collectInterfaces(pkgs []*analysis.Package) map[string][]*types.Interface {
	ifaces := make(map[string][]*types.Interface)
	seen := make(map[types.Type]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() { // a constraint is not a method contract
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i).Name()
			ifaces[m] = append(ifaces[m], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	imported := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && tn.Exported() {
				add(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for expr, tv := range pkg.Info.Types {
			if tv.Type != nil && types.IsInterface(tv.Type) && !inTestFile(pkg, expr.Pos()) {
				add(tv.Type)
			}
		}
	}
	return ifaces
}

// implementsInterface reports whether a pointer to method fn's receiver
// type implements an interface that declares fn's name.
func implementsInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr := types.NewPointer(receiverType(recv.Type()))
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func receiverType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func inTestFile(pkg *analysis.Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

// name renders fn as pkg.Func or pkg.Type.Method.
func name(fn *types.Func) string {
	s := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n, ok := receiverType(recv.Type()).(*types.Named); ok {
			s += n.Obj().Name() + "."
		}
	}
	return s + fn.Name()
}
