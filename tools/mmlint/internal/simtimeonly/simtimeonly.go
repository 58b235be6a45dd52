// Package simtimeonly fences the simulator's single source of time.
// Everything under repro/internal/ except internal/simtime itself must
// route timing through the simtime.Scheduler:
//
//   - the wall-clock timer surface of package time (NewTimer, NewTicker,
//     AfterFunc, After, Tick, Sleep) is banned, as are references to the
//     time.Timer and time.Ticker types;
//   - importing container/heap is banned — the scheduler's 4-ary heap is
//     the only priority queue, and a second one would fork the notion of
//     "next event";
//   - constructing simtime.Ticker directly (composite literal or new) is
//     banned: tickers are armed by Scheduler.Every so they enter the
//     per-interval delay lines;
//   - non-zero simtime.Event composite literals are banned: events are
//     minted by the scheduler so sequence numbers stay dense. The zero
//     Event{} is allowed (it is the documented "no event" value).
package simtimeonly

import (
	"go/ast"
	"go/types"

	"repro/tools/mmlint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "simtimeonly",
	Doc:  "forbid wall-clock timers, second heaps and hand-built simtime values outside internal/simtime",
	Run:  run,
}

const simtimePkg = "repro/internal/simtime"

var bannedTimeFuncs = map[string]bool{
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"After": true, "Tick": true, "Sleep": true,
}

var bannedTimeTypes = map[string]bool{"Timer": true, "Ticker": true}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !analysis.IsInternalSimPath(path) || path == simtimePkg {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"container/heap"` {
				pass.Reportf(imp.Pos(), "container/heap import: the simtime scheduler owns the only event heap")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.Ident:
				checkTypeRef(pass, n)
			case *ast.CompositeLit:
				checkComposite(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	ref := analysis.Callee(pass.Info, call)
	if ref.Pkg == "time" && ref.Recv == "" && bannedTimeFuncs[ref.Name] {
		pass.Reportf(call.Pos(), "time.%s in simulator code: arm a simtime.Scheduler event instead", ref.Name)
		return
	}
	// new(simtime.Ticker) builds an unarmed ticker outside the scheduler.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" && len(call.Args) == 1 {
			if tv, ok := pass.Info.Types[call.Args[0]]; ok && analysis.IsNamedType(tv.Type, simtimePkg, "Ticker") {
				pass.Reportf(call.Pos(), "new(simtime.Ticker): tickers must come from Scheduler.Every")
			}
		}
	}
}

func checkTypeRef(pass *analysis.Pass, id *ast.Ident) {
	tn, ok := pass.Info.Uses[id].(*types.TypeName)
	if !ok || tn.Pkg() == nil || tn.Pkg().Path() != "time" || !bannedTimeTypes[tn.Name()] {
		return
	}
	pass.Reportf(id.Pos(), "time.%s in simulator code: use simtime.Ticker armed by Scheduler.Every", tn.Name())
}

func checkComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	switch {
	case analysis.IsNamedType(tv.Type, simtimePkg, "Ticker"):
		pass.Reportf(lit.Pos(), "simtime.Ticker composite literal: tickers must come from Scheduler.Every")
	case analysis.IsNamedType(tv.Type, simtimePkg, "Event") && len(lit.Elts) > 0:
		pass.Reportf(lit.Pos(), "non-zero simtime.Event literal: events are minted by the scheduler (the zero Event{} is the only hand-written value)")
	}
}
