package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The call-graph core gives analyzers a unit-wide view the per-file AST
// walks cannot: which declared function calls which, and what facts
// (lock acquisitions, blocking operations, sink-reaching parameters)
// propagate transitively along those edges. The graph is intra-package
// and resolved statically — indirect calls through function values or
// interface methods have no edge, so analyzers built on it trade recall
// for precision, the right trade for a zero-findings self-lint gate.
//
// Function literals are deliberately NOT folded into their enclosing
// declaration: a closure may run on another goroutine (go statement),
// at return time (defer), or under a callee's own locking regime
// (store.forEach), so attributing its effects to the enclosing function
// would fabricate facts. Analyzers walk literal bodies separately.

// A CallSite is one static call inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the resolved target, nil for indirect and built-in
	// calls.
	Callee *types.Func
}

// A FuncNode is one declared function or method of the unit.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	// Calls lists the node's direct call sites in source order,
	// excluding calls inside nested function literals.
	Calls []CallSite
}

// A CallGraph lists every declared function of one unit.
type CallGraph struct {
	order []*FuncNode // declaration order: deterministic iteration
}

// Graph returns the unit's call graph, building it on first use. Run
// applies analyzers sequentially, so no locking is needed.
func (p *Pass) Graph() *CallGraph {
	if p.Unit.graph == nil {
		p.Unit.graph = buildCallGraph(p.Unit)
	}
	return p.Unit.graph
}

// Funcs returns the unit's function nodes in declaration order.
func (g *CallGraph) Funcs() []*FuncNode { return g.order }

func buildCallGraph(u *Unit) *CallGraph {
	g := &CallGraph{}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := u.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Obj: obj, Decl: fd}
			walkOwnStatements(fd.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					node.Calls = append(node.Calls, CallSite{Call: call, Callee: calleeFunc(u.Info, call)})
				}
			})
			g.order = append(g.order, node)
		}
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Decl.Pos() < g.order[j].Decl.Pos() })
	return g
}

// walkOwnStatements visits every node of a function body in source
// order, skipping the bodies of nested function literals (they belong
// to their own anonymous scope, see the package comment above).
func walkOwnStatements(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// A Fact is one transitive property of a function, carrying the source
// position that witnesses it and a human trail of how it was reached.
type Fact struct {
	Pos token.Pos
	Via string // "" when direct; otherwise the callee chain, e.g. "flush → conn.Write"
}

// Facts maps fact keys (analyzer-defined strings) to their witnesses.
type Facts map[string]Fact

// Propagate computes the transitive closure of per-function facts over
// the unit's static call graph: facts(F) = direct(F) ∪ facts(G) for
// every resolved intra-unit call F→G, with each inherited fact
// witnessed at the call site that imports it. The fixpoint iterates
// functions in declaration order and keeps the smallest witness
// position per fact, so the result is deterministic regardless of map
// iteration order.
func (g *CallGraph) Propagate(direct func(n *FuncNode) Facts) map[*types.Func]Facts {
	out := make(map[*types.Func]Facts, len(g.order))
	for _, n := range g.order {
		facts := direct(n)
		if facts == nil {
			facts = make(Facts)
		}
		out[n.Obj] = facts
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			facts := out[n.Obj]
			for _, site := range n.Calls {
				if site.Callee == nil {
					continue
				}
				calleeFacts, ok := out[site.Callee]
				if !ok {
					continue
				}
				keys := make([]string, 0, len(calleeFacts))
				for key := range calleeFacts {
					keys = append(keys, key)
				}
				sort.Strings(keys)
				for _, key := range keys {
					from := calleeFacts[key]
					via := site.Callee.Name()
					if from.Via != "" {
						via += " → " + from.Via
					}
					imported := Fact{Pos: site.Call.Pos(), Via: via}
					have, exists := out[n.Obj][key]
					if !exists || imported.Pos < have.Pos {
						// Keep the earliest witness; replacing an equal-pos
						// fact would loop forever, so strictly smaller only.
						facts[key] = imported
						changed = true
					}
				}
			}
		}
	}
	return out
}
