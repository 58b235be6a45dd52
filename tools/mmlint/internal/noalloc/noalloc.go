// Package noalloc checks functions annotated //mmlint:noalloc for
// syntactic allocation sites. The annotation marks steady-state hot
// paths (scheduler fire/arm, link send/deliver, ticker re-arm,
// handoff EvaluateSignals) whose zero-allocation behaviour is pinned at runtime
// by testing.AllocsPerRun; this analyzer keeps the property visible at
// every call-site-free edit in between.
//
// Flagged inside an annotated function: make, new, slice/map composite
// literals, &T{...}, append, string concatenation, closures that capture
// local variables, and interface conversions that box a non-pointer-
// shaped value. Plain value composites (Event{...}) stay on the stack
// and are allowed, as are calls — the runtime pin covers callees.
//
// A site that must allocate (amortized arena growth, error paths) is
// waived with `//mmlint:alloc-ok <reason>` on the line or the line
// above; the reason is mandatory.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/mmlint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "flag syntactic allocation in functions annotated //mmlint:noalloc",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.DocDirective(fd.Doc, "noalloc"); !ok {
				continue
			}
			c := &checker{pass: pass, fn: fd}
			c.block(fd.Body)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
}

// flag reports an allocation site unless an alloc-ok waiver with a
// reason covers the position.
func (c *checker) flag(pos token.Pos, format string, args ...any) {
	if reason, ok := c.pass.Directive(pos, "alloc-ok"); ok {
		if reason == "" {
			c.pass.Reportf(pos, "mmlint:alloc-ok waiver requires a reason")
		}
		return
	}
	c.pass.Reportf(pos, format+" in //mmlint:noalloc function %s", append(args, c.fn.Name.Name)...)
}

// block walks statements, skipping nested function literal bodies (the
// literal itself is checked for captures where it appears).
func (c *checker) block(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.funcLit(n)
			return false // body runs elsewhere; its allocs are its own
		case *ast.CallExpr:
			c.call(n)
		case *ast.CompositeLit:
			c.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.flag(n.Pos(), "heap-escaping &composite literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(exprType(c.pass, n)) {
				c.flag(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ReturnStmt:
			c.returnStmt(n)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.flag(call.Pos(), "make")
			case "new":
				c.flag(call.Pos(), "new")
			case "append":
				c.flag(call.Pos(), "append (may grow)")
			}
			return
		}
	}
	// Interface conversion: T(x) where T is an interface.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(tv.Type, exprType(c.pass, call.Args[0])) {
			c.flag(call.Pos(), "interface conversion boxes a value")
		}
		return
	}
	// Argument boxing at interface-typed parameters.
	sig := callSignature(c.pass, call)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(pt, exprType(c.pass, arg)) {
			c.flag(arg.Pos(), "argument boxes a value into an interface")
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		c.flag(call.Pos(), "variadic call allocates its argument slice")
	}
}

func (c *checker) composite(lit *ast.CompositeLit) {
	t := exprType(c.pass, lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.flag(lit.Pos(), "slice literal")
	case *types.Map:
		c.flag(lit.Pos(), "map literal")
	}
}

// funcLit flags closures that capture variables local to the enclosing
// function: those allocate a closure object (and often move the captured
// variable to the heap). Non-capturing literals compile to plain funcs.
func (c *checker) funcLit(lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != "" {
			return captured == ""
		}
		v, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Captured iff declared in the enclosing function but outside the
		// literal. Package-level vars don't force a closure allocation.
		if v.Pos() >= c.fn.Pos() && v.Pos() < lit.Pos() && !v.IsField() {
			captured = v.Name()
		}
		return true
	})
	if captured != "" {
		c.flag(lit.Pos(), "closure captures %s", captured)
	}
}

func (c *checker) assign(a *ast.AssignStmt) {
	if a.Tok == token.ADD_ASSIGN && len(a.Lhs) == 1 && isString(exprType(c.pass, a.Lhs[0])) {
		c.flag(a.Pos(), "string concatenation")
	}
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		if boxes(lvalueType(c.pass, lhs, a), exprType(c.pass, a.Rhs[i])) {
			c.flag(a.Rhs[i].Pos(), "assignment boxes a value into an interface")
		}
	}
}

func (c *checker) returnStmt(r *ast.ReturnStmt) {
	sig := c.funcSig()
	if sig == nil || len(r.Results) != sig.Results().Len() {
		return
	}
	for i, res := range r.Results {
		if boxes(sig.Results().At(i).Type(), exprType(c.pass, res)) {
			c.flag(res.Pos(), "return boxes a value into an interface")
		}
	}
}

func (c *checker) funcSig() *types.Signature {
	fn, _ := c.pass.Info.Defs[c.fn.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// boxes reports whether storing a value of type src into dst allocates:
// dst is an interface, src is a concrete type whose values are not
// pointer-shaped.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if !types.IsInterface(dst) || types.IsInterface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !analysis.IsPointerShaped(src)
}

func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func lvalueType(pass *analysis.Pass, e ast.Expr, a *ast.AssignStmt) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && a.Tok == token.DEFINE {
		if v, ok := pass.Info.Defs[id].(*types.Var); ok {
			return v.Type()
		}
	}
	return exprType(pass, e)
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
