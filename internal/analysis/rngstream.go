package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// RNGStream enforces the sweep-engine determinism contract inside
// parallel trial bodies (docs/sweep-engine.md rule 1): a function
// literal handed to sim.ParMap/ParMapN must derive its random stream
// from its trial index (sim.TrialRNG or equivalent), never capture a
// *sim.RNG from the enclosing scope. A shared
// generator consumed by concurrently scheduled trials hands out draws
// in scheduling order, so results vary with worker count and the
// worker=1 vs worker=N byte-identity that harness/determinism_test.go
// asserts silently breaks.
// The same hazard applies to goroutine closures: a `go func(){...}()`
// capturing a shared generator races its draws against the spawning
// goroutine's, so the draw sequence depends on scheduling. Stream
// transports made this shape common (read-loop and server-connection
// goroutines), so the rule covers go statements too — hand a goroutine
// its own seeded stream, or draw everything before spawning.
var RNGStream = &Analyzer{
	Name: "rngstream",
	Doc:  "forbid capturing *sim.RNG in sim.ParMap trial closures and go-statement closures; derive per-goroutine streams",
	Run:  runRNGStream,
}

// parEntryPoints are the sweep-engine functions whose closure arguments
// form trial bodies.
var parEntryPoints = map[string]bool{
	"ParMap":  true,
	"ParMapN": true,
}

func runRNGStream(pass *Pass) {
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkClosure(pass, lit, func(obj types.Object, kind string) string {
						return "go-statement closure captures " + kind + " " + strconv.Quote(obj.Name()) + " from the enclosing scope: concurrent draws interleave in scheduling order; give the goroutine its own seeded stream or draw before spawning"
					})
				}
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "trust/internal/sim" || !parEntryPoints[fn.Name()] {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkTrialBody(pass, fn.Name(), lit)
					}
				}
			}
			return true
		})
	}
}

// checkTrialBody flags free *sim.RNG variables used inside a trial
// closure.
func checkTrialBody(pass *Pass, entry string, lit *ast.FuncLit) {
	checkClosure(pass, lit, func(obj types.Object, kind string) string {
		return "sim." + entry + " trial closure captures " + kind + " " + strconv.Quote(obj.Name()) + " from the enclosing scope: derive a per-trial stream (sim.TrialRNG(seed, i)) so results do not depend on worker scheduling"
	})
}

// checkClosure flags free *sim.RNG variables used inside a function
// literal, formatting each finding with msg.
func checkClosure(pass *Pass, lit *ast.FuncLit, msg func(obj types.Object, kind string) string) {
	info := pass.Info()
	reported := make(map[types.Object]bool)
	report := func(pos interface{ Pos() token.Pos }, obj types.Object, kind string) {
		if reported[obj] {
			return
		}
		reported[obj] = true
		pass.Reportf(pos.Pos(), "%s", msg(obj, kind))
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj, ok := info.Uses[n].(*types.Var)
			if !ok || obj.IsField() || !isFree(obj, lit) {
				return true
			}
			if kind, ok := streamKind(obj.Type()); ok {
				report(n, obj, kind)
			}
		case *ast.SelectorExpr:
			// Reaching a stream through a captured struct (h.rng) is the
			// same bug with one more hop: flag when the selected field is
			// a stream and the chain is rooted at a free variable.
			sel, ok := info.Uses[n.Sel].(*types.Var)
			if !ok || !sel.IsField() {
				return true
			}
			kind, ok := streamKind(sel.Type())
			if !ok {
				return true
			}
			if root, ok := rootIdent(n.X); ok {
				if obj, isVar := info.Uses[root].(*types.Var); isVar && isFree(obj, lit) {
					report(n.Sel, sel, kind)
				}
			}
		}
		return true
	})
}

// isFree reports whether obj is declared outside the literal's span —
// i.e. the closure captures it rather than owning it.
func isFree(obj *types.Var, lit *ast.FuncLit) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// streamKind classifies a type as the deterministic stream type the
// rule protects.
func streamKind(t types.Type) (string, bool) {
	if simType(t, "RNG") {
		return "*sim.RNG", true
	}
	return "", false
}

// rootIdent returns the leftmost identifier of a selector chain.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil, false
		}
	}
}

// calleeFunc resolves the *types.Func a call invokes, unwrapping
// generic instantiations; nil for indirect or built-in calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
