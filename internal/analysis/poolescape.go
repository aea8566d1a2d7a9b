package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape tracks values obtained from sync.Pool.Get through the
// function that borrowed them and flags every path where the pooled
// object — or a slice aliasing its backing array — escapes: returned,
// stored in a struct field, map, or package variable, sent on a
// channel, or handed to a goroutine. Once Put returns the buffer, any
// escaped alias is silently overwritten by the next borrower; this is
// exactly the interceptor shallow-copy bug PR 4 fixed by hand (a pooled
// encode buffer's bytes retained past the request). The analysis is a
// per-function alias walk: passing an alias as an ordinary call
// argument is fine (the callee returns before Put), as is copying out
// via append onto a fresh slice or a string conversion — the idioms the
// codec layer uses to publish results.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "flag pooled (sync.Pool.Get) buffers or aliasing slices escaping the borrowing function (return, store, channel send, goroutine capture)",
	Run:  runPoolEscape,
}

// aliasReturningMethods are methods whose result shares its receiver's
// backing storage, so calling one on a pooled value yields another
// alias. (String() and similar copy and are therefore laundering.)
var aliasReturningMethods = map[string]bool{
	"Bytes":           true, // bytes.Buffer.Bytes
	"AvailableBuffer": true,
	"Next":            true,
}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolEscapes(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				checkPoolEscapes(pass, n.Body)
				return false
			}
			return true
		})
		// Top level only: checkPoolEscapes recurses into nested literals
		// itself so aliases flowing into closures stay visible.
	}
}

// checkPoolEscapes analyzes one function body: first collect the
// pooled roots and everything aliasing them, then flag the escapes.
func checkPoolEscapes(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info()
	aliases := make(map[types.Object]token.Pos) // object -> Get position it aliases
	names := make(map[types.Object]string)

	bind := func(lhs ast.Expr, origin token.Pos, originName string) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		aliases[obj] = origin
		names[obj] = originName
	}

	// Pass 1: seed roots and propagate aliases, in source order (Go
	// locals are declared before use, so one pass converges).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if pos, ok := poolGet(info, rhs); ok {
					name := "<pooled>"
					if id, isID := n.Lhs[i].(*ast.Ident); isID {
						name = id.Name
					}
					bind(n.Lhs[i], pos, name)
				} else if root, ok := aliasRoot(info, rhs, aliases); ok {
					bind(n.Lhs[i], aliases[root], names[root])
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				if pos, ok := poolGet(info, v); ok {
					bind(n.Names[i], pos, n.Names[i].Name)
				} else if root, ok := aliasRoot(info, v, aliases); ok {
					bind(n.Names[i], aliases[root], names[root])
				}
			}
		}
		return true
	})
	if len(aliases) == 0 {
		return
	}

	report := func(pos token.Pos, root types.Object, how string) {
		pass.Reportf(pos, "pooled buffer %q (sync.Pool.Get) %s: after Put the next borrower overwrites it; copy the bytes out (append to a fresh slice) instead", names[root], how)
	}

	// Pass 2: escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if root, ok := aliasRoot(info, res, aliases); ok {
					report(res.Pos(), root, "escapes via return")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				root, ok := aliasRoot(info, rhs, aliases)
				if !ok {
					continue
				}
				if escapingStore(info, n.Lhs[i], aliases) {
					report(n.Lhs[i].Pos(), root, "is stored outside the function")
				}
			}
		case *ast.SendStmt:
			if root, ok := aliasRoot(info, n.Value, aliases); ok {
				report(n.Value.Pos(), root, "escapes on a channel send")
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if root, ok := aliasRoot(info, arg, aliases); ok {
					report(arg.Pos(), root, "escapes into a goroutine argument")
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if id, isID := m.(*ast.Ident); isID {
						if obj := info.Uses[id]; obj != nil {
							if _, isAlias := aliases[obj]; isAlias {
								report(id.Pos(), obj, "is captured by a goroutine")
								return false
							}
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// poolGet reports whether e is a (*sync.Pool).Get call, possibly
// wrapped in a type assertion — the borrow that starts tracking.
func poolGet(info *types.Info, e ast.Expr) (token.Pos, bool) {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return token.NoPos, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Get" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return token.NoPos, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return token.NoPos, false
	}
	if name, ok := namedTypeKey(sig.Recv().Type()); ok && name == "sync.Pool" {
		return call.Pos(), true
	}
	return token.NoPos, false
}

// aliasRoot reports whether evaluating e yields memory aliasing a
// tracked pooled object, returning that root object. The rules mirror
// how slices and buffers share backing storage:
//
//	x                    alias if x tracked
//	x.f, x[i:j], *x, &x  alias of whatever x aliases
//	x.(T), (x)           transparent
//	x.Bytes()            alias (aliasReturningMethods)
//	append(x, ...)       alias of x (may share x's backing array)
//	T{..., x, ...}       alias if any element is (the value embeds it)
//	append(fresh, x...)  NOT an alias: the copy-out idiom
//	string(x), len(x)    NOT an alias: copies / scalars
//	f(x)                 NOT an alias: callee results are fresh
func aliasRoot(info *types.Info, e ast.Expr, aliases map[types.Object]token.Pos) (types.Object, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			if _, ok := aliases[obj]; ok {
				return obj, true
			}
		}
		return nil, false
	case *ast.SelectorExpr:
		return aliasRoot(info, e.X, aliases)
	case *ast.ParenExpr:
		return aliasRoot(info, e.X, aliases)
	case *ast.StarExpr:
		return aliasRoot(info, e.X, aliases)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return aliasRoot(info, e.X, aliases)
		}
		return nil, false
	case *ast.SliceExpr:
		return aliasRoot(info, e.X, aliases)
	case *ast.IndexExpr:
		// x[i] of a slice-of-slices would alias; of bytes it is a copy.
		// Indexing yields an element value, aliasing only for reference
		// element types — too rare in this codebase to special-case.
		return nil, false
	case *ast.TypeAssertExpr:
		return aliasRoot(info, e.X, aliases)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if root, ok := aliasRoot(info, elt, aliases); ok {
				return root, true
			}
		}
		return nil, false
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
				// append's result may share the first argument's backing
				// array; the variadic tail is always copied.
				return aliasRoot(info, e.Args[0], aliases)
			}
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && aliasReturningMethods[sel.Sel.Name] {
			if fn, isFn := info.Uses[sel.Sel].(*types.Func); isFn {
				if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
					return aliasRoot(info, sel.X, aliases)
				}
			}
		}
		return nil, false
	}
	return nil, false
}

// escapingStore reports whether assigning to lhs publishes the value
// beyond the function: a dereference, an index into any map or slice,
// a field of something that is not itself the tracked pooled object, or
// a package-level variable. Plain locals (including fields of the
// pooled object itself, e.g. pb.buf = ...) do not escape.
func escapingStore(info *types.Info, lhs ast.Expr, aliases map[types.Object]token.Pos) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		// Assigning to a package-level variable escapes.
		return obj.Parent() == obj.Pkg().Scope()
	case *ast.SelectorExpr:
		// Storing into a field of the pooled object itself (pb.buf = …)
		// stays inside the borrow; any other target escapes.
		if _, ok := aliasRoot(info, l.X, aliases); ok {
			return false
		}
		return true
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
