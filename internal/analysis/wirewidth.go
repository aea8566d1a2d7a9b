package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WireWidth guards the byte grammar's range rule outside the codec
// package. internal/wire refuses a value its field cannot state; an
// integer written into a fixed-width field by hand is only as safe as
// the conversion in front of it, and Go's integer conversions truncate
// silently. A truncated value shares another value's bytes: a
// risk count of 2^32+k once shared a MAC input with k, and a 65,536-byte
// account id written through a 16-bit length once left a log no server
// could reopen. So, in non-test code outside internal/wire, the rule
// flags a 2- or 4-byte encoding/binary write (Put/AppendUint16,
// Put/AppendUint32) or an appended byte(...) whose value converts from
// a wider or a signed integer. A site with a bound that makes the
// conversion exact says so in a //trustlint:allow wirewidth comment.
var WireWidth = &Analyzer{
	Name: "wirewidth",
	Doc:  "flag 2/4-byte encoding/binary writes and appended byte(...) values that narrow a wider or signed integer outside internal/wire",
	Run:  runWireWidth,
}

// wireCodecPackage is the one package that owns narrowing writes.
const wireCodecPackage = "trust/internal/wire"

// narrowWrites are the encoding/binary methods the rule covers; the
// value is each call's last argument.
var narrowWrites = map[string]bool{
	"PutUint16": true, "PutUint32": true,
	"AppendUint16": true, "AppendUint32": true,
}

func runWireWidth(pass *Pass) {
	if path := pass.Pkg().Path(); path == wireCodecPackage || strings.HasPrefix(path, wireCodecPackage+"/") {
		return
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		if pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var values []ast.Expr
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" && narrowWrites[fn.Name()] {
				values = call.Args[len(call.Args)-1:]
			} else if isBuiltin(info, call.Fun, "append") && !call.Ellipsis.IsValid() && len(call.Args) > 1 {
				values = call.Args[1:]
			}
			for _, v := range values {
				if from, to, ok := narrowingConversion(info, v); ok {
					pass.Reportf(v.Pos(), "%s(...) narrows %s to a %d-byte wire field, truncating silently: walk it through internal/wire, or state the bound that makes it exact in a //trustlint:allow wirewidth comment", to, from, intWidth(to))
				}
			}
			return true
		})
	}
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// narrowingConversion matches T(x) with T an unsigned integer type and
// x a non-constant integer that is signed or wider than T.
func narrowingConversion(info *types.Info, e ast.Expr) (from, to *types.Basic, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
		return nil, nil, false
	}
	to, _ = info.TypeOf(call.Fun).Underlying().(*types.Basic)
	arg := info.Types[call.Args[0]]
	from, _ = arg.Type.Underlying().(*types.Basic)
	if to == nil || from == nil || arg.Value != nil ||
		to.Info()&types.IsUnsigned == 0 || from.Info()&types.IsInteger == 0 {
		return nil, nil, false
	}
	return from, to, from.Info()&types.IsUnsigned == 0 || intWidth(from) > intWidth(to)
}

// intWidth is an integer kind's size in bytes, taking int, uint and
// uintptr at their 64-bit width.
func intWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 1
	case types.Int16, types.Uint16:
		return 2
	case types.Int32, types.Uint32:
		return 4
	}
	return 8
}
