package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// NoWallClock forbids wall-clock time and global randomness. Every
// timing result in this repository is derived from the explicit virtual
// instant (now time.Duration) each layer is passed, and every random
// draw from a seeded sim.RNG, which is what makes a whole run
// reproducible from one integer (docs/sweep-engine.md).
// One stray time.Now or math/rand call silently re-introduces
// run-to-run variance, so both are banned everywhere; deliberate
// exceptions (e.g. a _test.go timeout helper) take a per-file
// //trustlint:allow nowallclock directive.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "forbid wall-clock time (time.Now/Since/Sleep/..., I/O deadlines, context timeouts) and math/rand; pass virtual time (now) and use sim.RNG",
	Run:  runNoWallClock,
}

// wallClockFuncs are the package time functions that read or wait on
// the wall clock. Types and constants (time.Duration, time.Millisecond)
// remain fine: they are units, not clocks.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// bannedImports are randomness sources outside the sim.RNG discipline.
var bannedImports = map[string]string{
	"math/rand":    "derive randomness from a seeded *sim.RNG",
	"math/rand/v2": "derive randomness from a seeded *sim.RNG",
}

// deadlineSetters are the net.Conn-shaped I/O deadline methods. A
// deadline is a wall-clock timer armed inside the kernel: whether it
// fires depends on host load, so a streamed-transport test that leans
// on SetReadDeadline to detect a cut connection passes or fails by
// machine. The repo's stream goroutines detect loss structurally
// instead (closed pipes surface as read errors; the fault dialer
// injects cuts deterministically), so deadline setters are banned
// along with the clock reads they are built from.
var deadlineSetters = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// contextTimeouts are the context constructors that embed a wall-clock
// timer.
var contextTimeouts = map[string]bool{
	"WithTimeout":       true,
	"WithTimeoutCause":  true,
	"WithDeadline":      true,
	"WithDeadlineCause": true,
}

// maybeReadBytePkgs are the crypto packages whose GenerateKey consults
// randutil.MaybeReadByte: it reads 0 or 1 extra bytes from the entropy
// reader depending on the goroutine scheduler, so a deterministic
// stream desynchronizes between otherwise identical runs. Read a
// fixed-size seed yourself instead (pki.newX25519Key is the repo's
// exemplar; this bug made Fig 9/10 transcripts flip between two nonce
// sequences before it was found).
var maybeReadBytePkgs = map[string]bool{
	"crypto/ecdh":  true,
	"crypto/ecdsa": true,
	"crypto/rsa":   true,
}

func runNoWallClock(pass *Pass) {
	for _, f := range pass.Files() {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s: %s", path, why)
			}
		}
	}
	// A time.Timer or time.Ticker smuggled through a struct field
	// (embedded or named) or received as a parameter is the same wall
	// clock one hop removed: the value had to come from time.NewTimer
	// somewhere, and storing it institutionalizes the dependency.
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if t := pass.Info().Types[field.Type].Type; t != nil {
						if name, ok := timerType(t); ok {
							pass.Reportf(field.Type.Pos(), "struct field of type %s smuggles a wall-clock timer: whoever built it called time.NewTimer/NewTicker; schedule from the virtual instant now each layer is passed", name)
						}
					}
				}
			case *ast.FuncType:
				if n.Params == nil {
					return true
				}
				for _, field := range n.Params.List {
					if t := pass.Info().Types[field.Type].Type; t != nil {
						if name, ok := timerType(t); ok {
							pass.Reportf(field.Type.Pos(), "parameter of type %s accepts a wall-clock timer: the caller had to arm one with time.NewTimer/NewTicker; pass the virtual instant (now time.Duration) instead", name)
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range pass.Info().Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		switch {
		case fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()]:
			pass.Reportf(id.Pos(), "use of time.%s: wall time breaks run-to-run determinism; use the virtual instant now each layer is passed", fn.Name())
		case fn.Pkg().Path() == "context" && contextTimeouts[fn.Name()]:
			pass.Reportf(id.Pos(), "use of context.%s: it arms a wall-clock timer, so cancellation depends on host load; drive teardown from virtual time or structural signals (closed connections)", fn.Name())
		case maybeReadBytePkgs[fn.Pkg().Path()] && fn.Name() == "GenerateKey":
			pass.Reportf(id.Pos(), "use of %s.GenerateKey: it reads a scheduler-dependent number of bytes (randutil.MaybeReadByte), desynchronizing deterministic entropy streams; read a fixed-size seed and build the key explicitly", pathBase(fn.Pkg().Path()))
		case deadlineSetters[fn.Name()] && isDeadlineSignature(fn):
			pass.Reportf(id.Pos(), "use of %s: an I/O deadline is a wall-clock timer, so timeouts fire by host load, not by run; detect loss structurally (closed connections, injected faults) instead", fn.Name())
		}
	}
}

// isDeadlineSignature reports whether fn is a method of the
// net.Conn deadline shape: func(time.Time) error. The name check alone
// would also catch unrelated methods that happen to share a name.
func isDeadlineSignature(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// timerType reports whether t is time.Timer/time.Ticker, a pointer to
// one, or a named type wrapping one — the shapes a wall-clock timer
// hides behind when passed around instead of called directly.
func timerType(t types.Type) (string, bool) {
	return timerTypeDepth(t, 0)
}

func timerTypeDepth(t types.Type, depth int) (string, bool) {
	if depth > 4 { // mutual embedding cannot recurse forever
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if name, ok := timerTypeDepth(ptr.Elem(), depth); ok {
			return "*" + name, true
		}
		return "", false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "time" && (obj.Name() == "Timer" || obj.Name() == "Ticker") {
		return "time." + obj.Name(), true
	}
	// A struct type that embeds a timer re-brands the same clock:
	// `type ticking struct { *time.Timer }` used as a field or
	// parameter type is the smuggling shape this check exists for.
	if under, ok := named.Underlying().(*types.Struct); ok && obj.Pkg() != nil && obj.Pkg().Path() != "time" {
		for i := 0; i < under.NumFields(); i++ {
			f := under.Field(i)
			if !f.Embedded() {
				continue
			}
			if name, ok := timerTypeDepth(f.Type(), depth+1); ok {
				return obj.Name() + " (embedding " + name + ")", true
			}
		}
	}
	return "", false
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// simType reports whether t is sim.<name> or *sim.<name>.
func simType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "trust/internal/sim"
}

// walkFuncBodies visits every function body in the file, declarations
// and literals alike.
func walkFuncBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}
