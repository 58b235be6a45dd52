// Package detorder enforces the simulator's determinism discipline
// inside repro/internal/...: identical inputs must produce byte-identical
// output, so iteration order, time sources and concurrency are all
// policed.
//
// Three rule groups:
//
//  1. Map-range order: a `for ... range m` over a map must not, inside
//     its body, (a) call an order-sensitive effect (rng draws, scheduler
//     arming, packet sends, printing), (b) write non-local state in an
//     order-dependent way (writes indexed by the range key, integer
//     counter bumps, constant-flag stores and delete(m, key) are
//     order-independent and allowed), or (c) append to a slice that is
//     never sorted afterwards in the same function. Sorting the keys
//     first and ranging the sorted slice — or an explicit
//     `//mmlint:ordered` comment on the range line or the line above —
//     sanctions the loop.
//  2. Ambient nondeterminism: time.Now/Since/Until and the global
//     math/rand and math/rand/v2 draw functions are banned; simulated
//     time comes from simtime.Scheduler and randomness from seeded
//     simtime.Rand. There is no exception: wall-time attribution lives
//     in benchmarks and profiles.
//  3. Concurrency: bare `go` statements are banned. The measurement
//     fan-out in internal/core/measure.go and everything under
//     internal/runner are the sanctioned exceptions.
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/tools/mmlint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc:  "flag nondeterministic map iteration, wall-clock time, global rand and bare goroutines in simulator code",
	Run:  run,
}

const (
	simtimePkg = "repro/internal/simtime"
	netsimPkg  = "repro/internal/netsim"
	obsPkg     = "repro/internal/obs"
)

// effects are calls whose order between iterations is observable in
// simulator output: rng draws, event-queue arming (sequence numbers),
// packet movement, and printing. Ticker.Stop and Event.Cancel are
// deliberately absent: pop order is totally ordered by (time, seq), so
// cancellation order cannot be observed.
var effects = map[analysis.FuncRef]bool{
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "At"}:        true,
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "After"}:     true,
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "AfterFIFO"}: true,
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "Every"}:     true,
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "EveryNow"}:  true,
	{Pkg: simtimePkg, Recv: "Ticker", Name: "Reset"}:        true,
	{Pkg: simtimePkg, Recv: "Scheduler", Name: "Rearm"}:     true,
	{Pkg: simtimePkg, Recv: "Line", Name: "Post"}:           true,

	{Pkg: netsimPkg, Recv: "Node", Name: "Send"}:             true,
	{Pkg: netsimPkg, Recv: "Node", Name: "SendVia"}:          true,
	{Pkg: netsimPkg, Recv: "Network", Name: "DeliverDirect"}: true,
	{Pkg: netsimPkg, Recv: "Network", Name: "Drop"}:          true,
	{Pkg: netsimPkg, Recv: "Network", Name: "deliver"}:       true,
	{Pkg: netsimPkg, Recv: "Network", Name: "NewNode"}:       true,
	{Pkg: netsimPkg, Recv: "Network", Name: "Connect"}:       true,
	{Pkg: netsimPkg, Recv: "Handler", Name: "Receive"}:       true,
	{Pkg: netsimPkg, Recv: "HandlerFunc", Name: "Receive"}:   true,
	{Pkg: netsimPkg, Recv: "StaticRouter", Name: "Forward"}:  true,
	{Pkg: netsimPkg, Recv: "StaticRouter", Name: "Receive"}:  true,
	{Pkg: netsimPkg, Recv: "StaticRouter", Name: "AddRoute"}: true,

	// Trace.Emit appends to the shared event buffer (export order is
	// emission order) and Monitor.Eval both reads sampled series and
	// emits alert events plus policy callbacks, so calling either from
	// a map range bakes map order into the trace bytes.
	{Pkg: obsPkg, Recv: "Trace", Name: "Emit"}:   true,
	{Pkg: obsPkg, Recv: "Monitor", Name: "Eval"}: true,

	{Pkg: "fmt", Name: "Print"}:    true,
	{Pkg: "fmt", Name: "Printf"}:   true,
	{Pkg: "fmt", Name: "Println"}:  true,
	{Pkg: "fmt", Name: "Fprint"}:   true,
	{Pkg: "fmt", Name: "Fprintf"}:  true,
	{Pkg: "fmt", Name: "Fprintln"}: true,
}

// isEffect also treats every *simtime.Rand method as an effect: each
// draw advances the stream, so draw order is output order.
func isEffect(ref analysis.FuncRef) bool {
	if effects[ref] {
		return true
	}
	return ref.Pkg == simtimePkg && ref.Recv == "Rand" && ref.Name != ""
}

// bannedTime and bannedRand are ambient-nondeterminism sources.
var bannedTime = map[string]bool{"Now": true, "Since": true, "Until": true}

var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"NormFloat64": true, "ExpFloat64": true, "Seed": true,
	// math/rand/v2 only
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.IsInternalSimPath(path) {
		return nil
	}
	if strings.HasPrefix(path, "repro/internal/runner") {
		return nil // the runner orchestrates real concurrency by design
	}
	for _, file := range pass.Files {
		allowConcurrency := path == "repro/internal/core" &&
			filepath.Base(pass.Fset.Position(file.Pos()).Filename) == "measure.go"
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, allowConcurrency)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, allowConcurrency bool) {
	sorted := sortedSlices(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !allowConcurrency {
				pass.Reportf(n.Pos(), "bare goroutine in simulator code: concurrency is reserved for internal/runner and core's measurement fan-out")
			}
		case *ast.CallExpr:
			checkBannedCall(pass, n)
		case *ast.RangeStmt:
			checkRange(pass, n, sorted)
		}
		return true
	})
}

// checkBannedCall flags wall-clock and global-rand calls, everywhere in
// simulator code: core/measure.go's exemption covers its goroutines, not
// the host clock.
func checkBannedCall(pass *analysis.Pass, call *ast.CallExpr) {
	ref := analysis.Callee(pass.Info, call)
	if ref.Recv != "" {
		return
	}
	switch {
	case ref.Pkg == "time" && bannedTime[ref.Name]:
		pass.Reportf(call.Pos(), "time.%s in simulator code: use the simtime.Scheduler clock", ref.Name)
	case (ref.Pkg == "math/rand" || ref.Pkg == "math/rand/v2") && bannedRand[ref.Name]:
		pass.Reportf(call.Pos(), "global %s.%s draw: use a seeded *simtime.Rand", ref.Pkg, ref.Name)
	}
}

// sortedSlices collects variables passed to sort.* or slices.* anywhere
// in the function: appending to one of these inside a map range is the
// sanctioned collect-then-sort pattern.
func sortedSlices(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ref := analysis.Callee(pass.Info, call)
		if ref.Pkg != "sort" && ref.Pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v, ok := pass.Info.Uses[id].(*types.Var); ok {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[*types.Var]bool) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || !analysis.IsMapType(tv.Type) {
		return
	}
	if _, ok := pass.Directive(rng.Pos(), "ordered"); ok {
		return
	}
	var keyVar *types.Var
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyVar, _ = pass.Info.Defs[id].(*types.Var)
		if keyVar == nil {
			keyVar, _ = pass.Info.Uses[id].(*types.Var)
		}
	}
	c := &rangeChecker{pass: pass, rng: rng, keyVar: keyVar, sorted: sorted}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.IncDecStmt:
			c.checkWrite(n.X, n.Pos(), token.INC)
		}
		return true
	})
}

type rangeChecker struct {
	pass   *analysis.Pass
	rng    *ast.RangeStmt
	keyVar *types.Var
	sorted map[*types.Var]bool
}

func (c *rangeChecker) reportf(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, "map iteration order is not deterministic: "+format+
		" (sort the keys first, or mark //mmlint:ordered with justification)", args...)
}

func (c *rangeChecker) checkCall(call *ast.CallExpr) {
	ref := analysis.Callee(c.pass.Info, call)
	if isEffect(ref) {
		name := ref.Name
		if ref.Recv != "" {
			name = ref.Recv + "." + name
		}
		c.reportf(call.Pos(), "%s inside a map range draws rng, arms events or emits output in map order", name)
		return
	}
	// delete(m, k) for k == the range key is per-key and allowed; any
	// other delete mutates map state in iteration order.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
			if len(call.Args) == 2 && c.isKeyExpr(call.Args[1]) {
				return
			}
			c.reportf(call.Pos(), "delete with a non-range-key inside a map range")
		}
	}
}

func (c *rangeChecker) checkAssign(a *ast.AssignStmt) {
	for i, lhs := range a.Lhs {
		// `xs = append(xs, ...)` is judged by the collect-then-sort rule,
		// not the plain-store rule: allowed iff xs is sorted later in the
		// same function.
		if i < len(a.Rhs) && c.isAppendOf(a.Rhs[i], lhs) {
			if lv := c.identVar(lhs); lv != nil && !c.sorted[lv] && !c.isLoopLocal(lv) {
				c.reportf(a.Rhs[i].Pos(), "append to %s which is never sorted in this function", lv.Name())
			}
			continue
		}
		c.checkWrite(lhs, a.Pos(), a.Tok)
	}
}

// isAppendOf reports whether rhs is `append(lhs, ...)`.
func (c *rangeChecker) isAppendOf(rhs, lhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := c.pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	lv := c.identVar(lhs)
	return lv != nil && lv == c.identVar(call.Args[0])
}

// checkWrite flags order-dependent writes to non-local state. Allowed:
// writes to variables declared inside the loop body, lvalues indexed by
// the range key (per-key, commutative across iterations), integer
// +=/-=/|=/++/-- (commutative and associative), and stores of constants
// (idempotent flag sets).
func (c *rangeChecker) checkWrite(lhs ast.Expr, pos token.Pos, tok token.Token) {
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		v, _ := c.pass.Info.Defs[l].(types.Object)
		if v != nil {
			return // := declares a new (loop-local) variable
		}
		uv, _ := c.pass.Info.Uses[l].(*types.Var)
		if uv == nil || c.isLoopLocal(uv) {
			return
		}
		if c.commutativeTok(tok, uv.Type()) {
			return
		}
		c.reportf(pos, "order-dependent write to %s", uv.Name())
	case *ast.IndexExpr:
		if c.isKeyExpr(l.Index) {
			return // m2[k] = ... is per-key
		}
		base := c.identVar(l.X)
		if base != nil && c.isLoopLocal(base) {
			return
		}
		if bs, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			_ = bs // field-based map/slice: same rules as below
		}
		if c.commutativeTok(tok, exprType(c.pass, lhs)) {
			return
		}
		c.reportf(pos, "order-dependent indexed write not keyed by the range key")
	case *ast.SelectorExpr:
		base := c.identVar(l.X)
		if base != nil && c.isLoopLocal(base) {
			return
		}
		if c.commutativeTok(tok, exprType(c.pass, lhs)) {
			return
		}
		c.reportf(pos, "order-dependent write to %s", l.Sel.Name)
	case *ast.StarExpr:
		c.reportf(pos, "order-dependent write through a pointer")
	}
}

// commutativeTok reports whether the assignment operator applied to this
// type is order-independent across iterations: integer accumulation and
// bitwise-or are commutative and associative; everything else (plain
// stores, float accumulation, string building) is not. Plain stores are
// handled separately by the caller via constant detection — here only
// compound tokens qualify.
func (c *rangeChecker) commutativeTok(tok token.Token, t types.Type) bool {
	switch tok {
	case token.INC, token.DEC:
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	return false
}

func (c *rangeChecker) isKeyExpr(e ast.Expr) bool {
	if c.keyVar == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := c.pass.Info.Uses[id].(*types.Var)
	return v == c.keyVar
}

func (c *rangeChecker) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := c.pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := c.pass.Info.Defs[id].(*types.Var)
	return v
}

// isLoopLocal reports whether the variable is declared inside the range
// statement — the body, or the range clause itself (key/value variables
// are fresh copies each iteration): its writes cannot leak iteration
// order out of the loop.
func (c *rangeChecker) isLoopLocal(v *types.Var) bool {
	return v.Pos() >= c.rng.Pos() && v.Pos() <= c.rng.Body.End()
}

func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
