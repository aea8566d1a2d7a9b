package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder machine-checks the documented lock hierarchy of
// docs/server-scaling.md: store shard locks are acquired before a
// session's own mutex, the session mutex before the leaf mutexes
// (entropy, audit log, page registry), never the other way around, and
// no two shard locks — same store or different stores — are ever held
// together. It also flags blocking operations (channel sends and
// receives, selects, writes to interface-typed readers/writers such as
// net.Conn, HTTP round trips, os.File writes/reads/syncs and durable
// WAL appends) made while a shard or session lock is held: one stalled
// peer — or one slow fsync — would serialize every request contending
// on that lock. Both checks see through intra-package calls via the
// call-graph core; calls through function values or interfaces are not
// tracked, and mutexes outside the ordering table (per-connection write
// locks, test-local mutexes) are invisible to the rule. Because an
// unranked lock goes unchecked, a table entry naming a lock its
// package no longer declares is itself a finding.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the documented lock hierarchy (store shard → session → leaf) and forbid blocking calls under shard/session locks",
	Run:  runLockOrder,
}

// Lock ranks, lowest acquired first. The table mirrors
// docs/server-scaling.md ("Lock hierarchy"): a lock may only be
// acquired while every held ranked lock has a strictly lower rank.
const (
	rankShard   = 10 // the store shard lock: shard[S].mu, one type for every store
	rankSession = 20 // one session's own mutex
	rankLeaf    = 30 // entropy, audit log, page registry: leaves, no lock below them
)

// lockClass is one ranked mutex: its position in the hierarchy and
// whether holding it across blocking I/O stalls the request hot path.
type lockClass struct {
	rank int
	// blockSensitive marks the request-path locks (shard and session):
	// a blocking call made while one is held is itself a finding.
	blockSensitive bool
}

// lockHierarchy is the in-code ordering table, keyed by the lock key
// lockExprKey produces ("pkgpath.Type.field" for struct-field mutexes,
// "pkgpath.var" for package-level ones). Mutexes not listed here are
// unranked and invisible to the rule.
var lockHierarchy = map[string]lockClass{
	// Store shard locks: the session, account and nonce stores all
	// embed one generic table, so one entry ranks every shard of every
	// store; never two at once (same rank).
	"trust/internal/webserver.shard.mu": {rankShard, true},
	// One session's own mutex: serializes requests on one session.
	"trust/internal/webserver.session.mu": {rankSession, true},
	// Leaf mutexes: nothing else may be acquired under them.
	"trust/internal/webserver.Server.entropyMu": {rankLeaf, false},
	"trust/internal/frame.AuditLog.mu":          {rankLeaf, false},

	// Fixture mirror of the hierarchy (testdata/src/lockorder).
	"trust/internal/analysis/testdata/src/lockorder.shard.mu":    {rankShard, true},
	"trust/internal/analysis/testdata/src/lockorder.session.mu":  {rankSession, true},
	"trust/internal/analysis/testdata/src/lockorder.auditLog.mu": {rankLeaf, false},
	"trust/internal/analysis/testdata/src/lockorder.gshard.mu":   {rankShard, true},
	// A lock the fixture does not declare: the stale-entry finding.
	"trust/internal/analysis/testdata/src/lockorder.retired.mu": {rankShard, true},
}

// externalLockEffects maps cross-package callees (by types.Func
// FullName) to the ranked locks they acquire internally, so the
// intra-package summaries see through the package boundary at the few
// points where the hierarchy crosses it.
var externalLockEffects = map[string][]string{
	"(*trust/internal/frame.AuditLog).Append": {"trust/internal/frame.AuditLog.mu"},
	"(*trust/internal/frame.AuditLog).Entries": {
		"trust/internal/frame.AuditLog.mu",
	},
}

// externalBlocking are cross-package callees that block on the network
// or a peer. Method sets on interface receivers (net.Conn, io.Writer)
// are recognized structurally in isBlockingCall; this table carries the
// concrete helpers.
var externalBlocking = map[string]string{
	"trust/internal/protocol.ReadFrame": "frame read",
	"io.Copy":                           "io.Copy",
	"io.ReadFull":                       "io.ReadFull",
	"io.ReadAll":                        "io.ReadAll",
	"(*net/http.Client).Do":             "HTTP round trip",
	"(*net/http.Client).Get":            "HTTP round trip",
	"(*net/http.Client).Post":           "HTTP round trip",
	"(*net/http.Client).PostForm":       "HTTP round trip",
	"(*net/http.Transport).RoundTrip":   "HTTP round trip",
	// Disk I/O blocks like a peer does: a synced WAL append under a
	// shard lock would serialize every enrollment on one fsync. The
	// durable enroll path appends OUTSIDE the shard lock (two-phase
	// claim, docs/persistence.md); these entries keep it that way.
	"(*os.File).Write": "file write (disk I/O)",
	"(*os.File).Read":  "file read (disk I/O)",
	"(*os.File).Sync":  "file sync (disk I/O)",
	"(trust/internal/store.AccountBackend).Append": "durable WAL append (disk I/O)",
	"(*trust/internal/store.WAL).Append":           "durable WAL append (disk I/O)",
	// The per-connection decoder's read, which the device's stream
	// exchange and the server's read loop use in place of ReadFrame.
	"(*trust/internal/protocol.Decoder).ReadFrame": "frame read",
}

// Fact-key prefixes for the propagated summaries.
const (
	lockFactPrefix = "lock:"  // lock:<key> — function transitively acquires <key>
	blockFact      = "block:" // function transitively performs a blocking op
)

func runLockOrder(pass *Pass) {
	reportStaleRanks(pass)
	graph := pass.Graph()
	summaries := graph.Propagate(func(n *FuncNode) Facts {
		return lockOrderDirectFacts(pass.Info(), n)
	})
	for _, n := range graph.Funcs() {
		checkLockOrderBody(pass, n.Decl.Body, summaries)
	}
	// Function literals get their own walk with an empty held set: a
	// closure's execution context (goroutine, defer, callee callback) is
	// not the enclosing function's.
	for _, f := range pass.Files() {
		ast.Inspect(f, func(node ast.Node) bool {
			if lit, ok := node.(*ast.FuncLit); ok {
				checkLockOrderBody(pass, lit.Body, summaries)
				return false
			}
			return true
		})
	}
}

// reportStaleRanks reports the lockHierarchy entries of the pass's
// package that name no declared mutex, at the package clause of its
// first file. A renamed or retired lock leaves its entry behind while
// the lock that replaced it goes unranked, and the rule then checks
// nothing about it without saying so.
func reportStaleRanks(pass *Pass) {
	pkg := pass.Pkg()
	var stale []string
	for key := range lockHierarchy {
		name, ok := strings.CutPrefix(key, pkg.Path()+".")
		if ok && !strings.Contains(name, "/") && !declaresLock(pkg.Scope(), name) {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		pass.Reportf(pass.Files()[0].Package, "stale lock rank-table entry %s: the package declares no such sync.Mutex/RWMutex, so the lock it ranked goes unchecked; update lockHierarchy", lockName(key))
	}
}

// declaresLock reports whether name ("Type.field" or "var", a
// lockExprKey suffix) is a sync.Mutex/RWMutex the scope declares.
func declaresLock(scope *types.Scope, name string) bool {
	typeName, field, isField := strings.Cut(name, ".")
	obj := scope.Lookup(typeName)
	if !isField {
		v, ok := obj.(*types.Var)
		return ok && isMutex(v.Type())
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == field && isMutex(f.Type()) {
			return true
		}
	}
	return false
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockOrderDirectFacts collects one function's own lock acquisitions
// and blocking operations (including known external callees), the seed
// facts Propagate closes over intra-package calls.
func lockOrderDirectFacts(info *types.Info, n *FuncNode) Facts {
	facts := make(Facts)
	add := func(key string, pos token.Pos) {
		if have, ok := facts[key]; !ok || pos < have.Pos {
			facts[key] = Fact{Pos: pos}
		}
	}
	walkOwnStatements(n.Decl.Body, func(node ast.Node) {
		switch node := node.(type) {
		case *ast.CallExpr:
			if key, op, ok := lockCall(info, node); ok {
				if (op == "Lock" || op == "RLock") && rankedLock(key) {
					add(lockFactPrefix+key, node.Pos())
				}
				return
			}
			if fn := calleeFunc(info, node); fn != nil {
				for _, key := range externalLockEffects[fn.FullName()] {
					add(lockFactPrefix+key, node.Pos())
				}
			}
			if what, ok := isBlockingCall(info, node); ok {
				add(blockFact+what, node.Pos())
			}
		case *ast.SendStmt:
			add(blockFact+"channel send", node.Pos())
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				add(blockFact+"channel receive", node.Pos())
			}
		case *ast.SelectStmt:
			add(blockFact+"select", node.Pos())
		}
	})
	return facts
}

// heldLock is one ranked lock the walker believes is held.
type heldLock struct {
	key  string
	rank int
	pos  token.Pos
}

// checkLockOrderBody walks one function (or literal) body in source
// order, tracking which ranked locks are held, and reports hierarchy
// inversions and blocking operations under block-sensitive locks. The
// tracking is a linear source-order approximation — an early-return
// unlock inside a branch clears the lock for the code after the branch
// — which errs toward missing findings, never toward inventing them.
func checkLockOrderBody(pass *Pass, body *ast.BlockStmt, summaries map[*types.Func]Facts) {
	info := pass.Info()
	var held []heldLock
	blockHolder := func() (heldLock, bool) {
		for _, h := range held {
			if lockHierarchy[h.key].blockSensitive {
				return h, true
			}
		}
		return heldLock{}, false
	}
	reportBlocked := func(pos token.Pos, what string) {
		if h, ok := blockHolder(); ok {
			pass.Reportf(pos, "%s while holding %s: a stalled peer holds up every request contending on that lock; release it before blocking (docs/server-scaling.md)", what, lockName(h.key))
		}
	}
	walkOwnStatements(body, func(node ast.Node) {
		switch node := node.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to the end of the
			// function; any other deferred call runs outside this body's
			// source order, so it is not walked here.
		case *ast.CallExpr:
			if key, op, ok := lockCall(info, node); ok {
				switch op {
				case "Lock", "RLock":
					if !rankedLock(key) {
						return
					}
					for _, h := range held {
						if h.key == key {
							pass.Reportf(node.Pos(), "re-acquiring %s while one is already held: the same instance self-deadlocks, and two locks of one rank (two shards) must never be held together (docs/server-scaling.md)", lockName(key))
						} else if lockHierarchy[key].rank <= h.rank {
							pass.Reportf(node.Pos(), "acquiring %s while holding %s inverts the documented lock hierarchy (store shard → session → leaf, docs/server-scaling.md)", lockName(key), lockName(h.key))
						}
					}
					if !inDefer(body, node) {
						held = append(held, heldLock{key: key, rank: lockHierarchy[key].rank, pos: node.Pos()})
					}
				case "Unlock", "RUnlock":
					if !inDefer(body, node) {
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].key == key {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}
				}
				return
			}
			if len(held) == 0 {
				return
			}
			if what, ok := isBlockingCall(info, node); ok {
				reportBlocked(node.Pos(), what)
			}
			fn := calleeFunc(info, node)
			if fn == nil {
				return
			}
			for _, key := range externalLockEffects[fn.FullName()] {
				checkAcquireUnderHeld(pass, node.Pos(), key, fn.Name(), held)
			}
			facts, ok := summaries[fn]
			if !ok {
				return
			}
			for key, fact := range facts {
				switch {
				case len(key) > len(lockFactPrefix) && key[:len(lockFactPrefix)] == lockFactPrefix:
					checkAcquireUnderHeld(pass, node.Pos(), key[len(lockFactPrefix):], callChain(fn, fact), held)
				case len(key) > len(blockFact) && key[:len(blockFact)] == blockFact:
					if h, okHeld := blockHolder(); okHeld {
						pass.Reportf(node.Pos(), "call to %s performs %s while %s is held: release the lock before blocking (docs/server-scaling.md)", callChain(fn, fact), key[len(blockFact):], lockName(h.key))
					}
				}
			}
		case *ast.SendStmt:
			reportBlocked(node.Pos(), "channel send")
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				reportBlocked(node.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			reportBlocked(node.Pos(), "select")
		}
	})
}

// checkAcquireUnderHeld reports a transitive acquisition (via callee
// described by how) that violates the hierarchy against any held lock.
func checkAcquireUnderHeld(pass *Pass, pos token.Pos, key, how string, held []heldLock) {
	for _, h := range held {
		if h.key == key {
			pass.Reportf(pos, "call to %s re-acquires %s while one is already held: the same instance self-deadlocks, and two locks of one rank must never be held together (docs/server-scaling.md)", how, lockName(key))
		} else if lockHierarchy[key].rank <= h.rank {
			pass.Reportf(pos, "call to %s acquires %s while %s is held, inverting the documented lock hierarchy (store shard → session → leaf, docs/server-scaling.md)", how, lockName(key), lockName(h.key))
		}
	}
}

// callChain renders "callee" or "callee (via a → b)" for transitive
// facts.
func callChain(fn *types.Func, fact Fact) string {
	if fact.Via == "" {
		return fn.Name()
	}
	return fn.Name() + " (via " + fact.Via + ")"
}

func rankedLock(key string) bool {
	_, ok := lockHierarchy[key]
	return ok
}

// lockName shortens a lock key for diagnostics: the part after the
// last slash, e.g. "webserver.session.mu".
func lockName(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	return key
}

// inDefer reports whether the call is the direct call expression of a
// defer statement in body (a `defer mu.Unlock()`): such an unlock runs
// at return, so it must not clear the held set mid-walk, and such a
// lock (pathological) is not tracked.
func inDefer(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	walkOwnStatements(body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			found = true
		}
	})
	return found
}

// lockCall resolves a call to sync.Mutex/RWMutex Lock/RLock/Unlock/
// RUnlock on a trackable lock expression, returning the lock key and
// the operation name.
func lockCall(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	key, ok = lockExprKey(info, sel.X)
	if !ok {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// lockExprKey derives a stable identity for the mutex a lock call
// targets: "pkgpath.Type.field" for a struct-field mutex (however deep
// the selector chain reaching it), "pkgpath.var" for a package-level
// mutex. Local mutexes and unresolvable expressions yield no key and
// therefore stay unranked.
func lockExprKey(info *types.Info, expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return lockExprKey(info, e.X)
	case *ast.SelectorExpr:
		field, ok := info.Uses[e.Sel].(*types.Var)
		if !ok {
			return "", false
		}
		if !field.IsField() {
			// Package-qualified variable: pkg.Mu.
			if field.Pkg() != nil && field.Parent() == field.Pkg().Scope() {
				return field.Pkg().Path() + "." + field.Name(), true
			}
			return "", false
		}
		if sel, ok := info.Selections[e]; ok {
			if name, ok := namedTypeKey(sel.Recv()); ok {
				return name + "." + field.Name(), true
			}
		}
		return "", false
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		return "", false
	}
	return "", false
}

// namedTypeKey renders a (possibly pointer-wrapped) named type as
// "pkgpath.Name".
func namedTypeKey(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// isBlockingCall classifies calls that can block on a peer: Read/Write
// through an interface-typed receiver (net.Conn, io.Writer — the
// concrete type behind the interface is a socket on the paths this rule
// guards), RoundTrip, and the externalBlocking helpers.
func isBlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if what, ok := externalBlocking[fn.FullName()]; ok {
		return what, true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !types.IsInterface(sig.Recv().Type()) {
		return "", false
	}
	switch fn.Name() {
	case "Read", "Write":
		return "interface " + fn.Name() + " (potential socket I/O)", true
	case "Sync":
		// The store's fs.File interface (and anything file-shaped): a
		// sync is an fsync on the durable path — disk-speed blocking.
		return "interface Sync (potential disk I/O)", true
	case "RoundTrip":
		return "HTTP round trip", true
	}
	return "", false
}
