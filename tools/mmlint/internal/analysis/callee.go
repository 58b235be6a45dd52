package analysis

import (
	"go/ast"
	"go/types"
)

// FuncRef names a function or method by package path, receiver type name
// ("" for package-level functions) and function name. Interface methods
// use the interface type's name as Recv, so a call through the interface
// matches the same key as the declaration.
type FuncRef struct {
	Pkg  string
	Recv string
	Name string
}

// Callee resolves the function a call expression invokes, looking through
// parentheses and explicit type arguments (rand.N[int64]). It returns the zero FuncRef for calls it cannot name:
// builtins, type conversions, function-valued variables and closures.
func Callee(info *types.Info, call *ast.CallExpr) FuncRef {
	fn := typeutilCallee(info, call)
	if fn == nil {
		return FuncRef{}
	}
	return refOf(fn)
}

// typeutilCallee is x/tools' typeutil.Callee, re-derived from go/types.
func typeutilCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.Func
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// refOf names a *types.Func as a FuncRef.
func refOf(fn *types.Func) FuncRef {
	ref := FuncRef{Name: fn.Name()}
	if pkg := fn.Pkg(); pkg != nil {
		ref.Pkg = pkg.Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		ref.Recv = namedName(sig.Recv().Type())
	}
	return ref
}

// DeclRef names a function declaration as a FuncRef, using the same
// naming scheme as Callee so facts tables match both sides.
func DeclRef(info *types.Info, decl *ast.FuncDecl) FuncRef {
	fn, _ := info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return FuncRef{}
	}
	return refOf(fn)
}

// namedName returns the base named-type name of t, looking through one
// pointer indirection ("Packet" for both packet.Packet and
// *packet.Packet), or "" for unnamed types.
func namedName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// IsNamedType reports whether t (after stripping one pointer level) is
// the named type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsMapType reports whether t's underlying type is a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// IsPointerShaped reports whether boxing a value of type t into an
// interface stores the value directly in the interface word (no heap
// allocation): pointers, maps, channels, functions and unsafe pointers.
func IsPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() == types.UnsafePointer || b.Kind() == types.UntypedNil
	}
	return false
}
