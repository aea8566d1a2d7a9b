package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SecretFlow is a taint pass over the packages that handle key
// material: identifiers and fields named like secrets (session keys,
// MAC keys, nonce-chain seeds, private keys, recovery passwords) must
// not flow into fmt/log calls, error strings, or panics — one logged
// key collapses the protocol's security argument (Gong et al.'s
// forgery analysis assumes exactly this never happens). A secret may be
// published only after laundering through an approved one-way
// transform: a digest (sha256/sha512), the repo's keyed MAC (its tags
// travel on the wire by design), or len/cap. The pass is
// identifier-based — `len(key)` is fine, `key` in an Errorf is not —
// and sees through intra-package helper functions via the call-graph
// core: passing a secret to a helper whose parameter reaches a sink is
// reported at the call site.
var SecretFlow = &Analyzer{
	Name: "secretflow",
	Doc:  "forbid secret-named values (keys, seeds, passwords) flowing into fmt/log/error/panic sinks unless laundered through an approved digest",
	Run:  runSecretFlow,
}

// secretFlowPackages scopes the rule to the layers that hold key
// material; the simulation and harness layers have no secrets to leak.
var secretFlowPackages = map[string]bool{
	"trust/internal/pki":       true,
	"trust/internal/protocol":  true,
	"trust/internal/webserver": true,
	"trust/internal/device":    true,
	"trust/internal/flock":     true,

	"trust/internal/analysis/testdata/src/secretflow": true,
}

// secretWords mark an identifier as carrying secret material;
// publicWords veto the match (PublicKey, pubKey are meant to travel).
var (
	secretWords = map[string]bool{
		"secret": true, "password": true, "passwd": true,
		"seed": true, "key": true, "keys": true,
		"private": true, "priv": true,
	}
	publicWords = map[string]bool{"public": true, "pub": true}
)

// secretSinks are the formatting and logging entry points a secret
// must never reach. Any function of package log counts as a sink too
// (handled structurally in sinkCall), as does panic.
var secretSinks = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Sprint": true, "fmt.Sprintf": true, "fmt.Sprintln": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"fmt.Errorf": true, "fmt.Appendf": true,
	"errors.New": true,
}

// launderFuncs are the approved one-way transforms: an identifier
// inside one of these calls is published as a digest, not as the
// secret. The keyed-MAC helpers qualify because their tags are wire
// data by design.
var launderFuncs = map[string]bool{
	"crypto/sha256.Sum224": true, "crypto/sha256.Sum256": true,
	"crypto/sha512.Sum384": true, "crypto/sha512.Sum512": true,
	"trust/internal/pki.MAC": true,
}

// sinkParamPrefix keys the propagated fact "parameter i reaches a
// sink" as sinkParamPrefix+i.
const sinkParamPrefix = "sinkparam:"

func runSecretFlow(pass *Pass) {
	if !secretFlowPackages[pass.Unit.basePath()] {
		return
	}
	graph := pass.Graph()
	summaries := graph.Propagate(func(n *FuncNode) Facts {
		return secretSinkParams(pass.Info(), n)
	})
	check := func(body *ast.BlockStmt) {
		walkOwnStatements(body, func(node ast.Node) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			checkSecretCall(pass, call, summaries)
		})
	}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncDecl:
				if node.Body != nil && !pass.InTestFile(node.Pos()) {
					check(node.Body)
				}
			case *ast.FuncLit:
				if !pass.InTestFile(node.Pos()) {
					check(node.Body)
				}
			}
			return true
		})
	}
}

// checkSecretCall reports secret-named identifiers reaching this call
// if it is a sink (directly or through a summarized helper parameter).
func checkSecretCall(pass *Pass, call *ast.CallExpr, summaries map[*types.Func]Facts) {
	info := pass.Info()
	if kind, ok := sinkCall(info, call); ok {
		for _, arg := range call.Args {
			if id, name := secretInExpr(info, arg); id != nil {
				pass.Reportf(id.Pos(), "secret %q flows into %s: key material must never reach logs or error strings; publish a digest (sha256.Sum256) or a length instead", name, kind)
			}
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	facts, ok := summaries[fn]
	if !ok || len(facts) == 0 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		fact, reaches := facts[sinkParamPrefix+strconv.Itoa(pi)]
		if !reaches {
			continue
		}
		if id, name := secretInExpr(info, arg); id != nil {
			pass.Reportf(id.Pos(), "secret %q flows into a log/error sink through %s: key material must never reach logs or error strings; publish a digest or a length instead", name, callChain(fn, fact))
		}
	}
}

// secretSinkParams computes one function's direct facts: which of its
// parameters reach a sink call inside its own body.
func secretSinkParams(info *types.Info, n *FuncNode) Facts {
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return nil
	}
	params := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = i
	}
	facts := make(Facts)
	walkOwnStatements(n.Decl.Body, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		if _, isSink := sinkCall(info, call); !isSink {
			return
		}
		for _, arg := range call.Args {
			paramIdentsInExpr(info, arg, params, func(i int, pos token.Pos) {
				key := sinkParamPrefix + strconv.Itoa(i)
				if have, ok := facts[key]; !ok || pos < have.Pos {
					facts[key] = Fact{Pos: pos}
				}
			})
		}
	})
	if len(facts) == 0 {
		return nil
	}
	return facts
}

// sinkCall classifies a call as a logging/formatting/error sink,
// returning a human label for it.
func sinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
			return "panic", true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	if secretSinks[full] {
		return full, true
	}
	if fn.Pkg().Path() == "log" {
		return "log." + fn.Name(), true
	}
	return "", false
}

// secretInExpr finds the first secret-named identifier reaching this
// expression, skipping subtrees laundered through an approved digest
// or the len/cap builtins. Only variables (locals, params, fields)
// count — type and function names that merely contain "key" are not
// values.
func secretInExpr(info *types.Info, e ast.Expr) (*ast.Ident, string) {
	var hitID *ast.Ident
	var hitName string
	ast.Inspect(e, func(n ast.Node) bool {
		if hitID != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if launderedCall(info, n) {
				return false
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok {
				return true
			}
			if isSecretName(n.Name) || isSecretType(v.Type()) {
				hitID, hitName = n, n.Name
				return false
			}
		}
		return true
	})
	return hitID, hitName
}

// paramIdentsInExpr invokes found for every use of a tracked parameter
// in e, again skipping laundered subtrees.
func paramIdentsInExpr(info *types.Info, e ast.Expr, params map[types.Object]int, found func(i int, pos token.Pos)) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if launderedCall(info, n) {
				return false
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				if i, ok := params[obj]; ok {
					found(i, n.Pos())
				}
			}
		}
		return true
	})
}

// launderedCall reports whether the call is an approved one-way
// transform (digest, keyed MAC, len/cap): its arguments may carry
// secrets because only the transform's output continues onward.
func launderedCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			return b.Name() == "len" || b.Name() == "cap"
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return launderFuncs[fn.Pkg().Path()+"."+fn.Name()]
}

// isSecretName splits an identifier into words (camelCase and
// snake_case) and reports whether any marks a secret with no public
// veto.
func isSecretName(name string) bool {
	words := splitWords(name)
	for _, w := range words {
		if publicWords[w] {
			return false
		}
	}
	for _, w := range words {
		if secretWords[w] {
			return true
		}
	}
	return false
}

// isSecretType recognizes types that are secret regardless of the
// variable's name.
func isSecretType(t types.Type) bool {
	name, ok := namedTypeKey(t)
	if !ok {
		return false
	}
	switch name {
	case "crypto/ed25519.PrivateKey", "crypto/ecdh.PrivateKey":
		return true
	}
	return false
}

// basePath strips the _test suffix of an external-test unit's import
// path, so scoped analyzers treat p and p_test alike.
func (u *Unit) basePath() string {
	return strings.TrimSuffix(u.ImportPath, "_test")
}
