package lint

// stripelock enforces the repair.go snapshot-then-install rule: never
// hold two chunk-stripe locks at once. Cross-stripe work must copy what
// it needs under the first stripe's lock, release it, and only then
// take the second — otherwise two repairs crossing opposite stripes
// deadlock. The check is flow-insensitive but call-aware: acquiring a
// stripe lock (st.mu.Lock/RLock on a chunkStripe) while any stripe lock
// is held is flagged, as is calling a function that (transitively)
// acquires one. Callbacks invoked under a stripe lock (forEachChunk) are
// analyzed as if they start with the lock held.

import (
	"go/ast"
	"go/types"
)

var stripeLockAnalyzer = &Analyzer{
	Name: "stripelock",
	Doc:  "never hold two chunk-stripe locks simultaneously (snapshot-then-install)",
	Run:  runStripeLock,
}

func runStripeLock(pass *Pass) {
	pkg := pass.Pkg
	g := buildCallGraph(pkg)

	// acquires: nodes that take a stripe lock anywhere, transitively.
	acquires := g.reverseClosure(func(n *funcNode) bool {
		found := false
		inspectShallow(n, func(x ast.Node) {
			if call, ok := x.(*ast.CallExpr); ok {
				if kind := stripeLockOp(pkg, call); kind == lockAcquire {
					found = true
				}
			}
		})
		return found
	})
	if len(acquires) == 0 {
		return
	}

	// underLock: nodes that call one of their own func-typed
	// parameters while holding a stripe lock (callback-under-lock).
	underLock := make(map[*funcNode]bool)
	for _, n := range g.nodes {
		scanHeld(pkg, g, n, 0, acquires, nil, func(call *ast.CallExpr) {
			if callsOwnFuncParam(pkg, n, call) {
				underLock[n] = true
			}
		})
	}

	report := func(call *ast.CallExpr, what string) {
		pass.Reportf(call.Pos(),
			"%s while a chunk-stripe lock is already held; snapshot under the first stripe, release it, then install (two held stripes deadlock crossing repairs)", what)
	}
	for _, n := range g.nodes {
		scanHeld(pkg, g, n, 0, acquires, report, nil)
		// Literal callbacks handed to an under-lock caller begin life
		// with that stripe lock held.
		inspectShallow(n, func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := g.calleeNode(call)
			if callee == nil || !underLock[callee] {
				return
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if ln := g.byLit[lit]; ln != nil {
						scanHeld(pkg, g, ln, 1, acquires, report, nil)
					}
				}
			}
		})
	}
}

// scanHeld walks n's body in source order tracking how many stripe
// locks are held, invoking report on a second acquisition (direct or
// via a call into the acquires set) and onCall on every call while
// held. Deferred unlocks do not lower the count: they run at return,
// so the lock is held for the rest of the body.
func scanHeld(pkg *Package, g *callGraph, n *funcNode, held int, acquires map[*funcNode]bool, report func(*ast.CallExpr, string), onCall func(*ast.CallExpr)) {
	deferred := make(map[*ast.CallExpr]bool)
	inspectShallow(n, func(x ast.Node) {
		if d, ok := x.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
	})
	inspectShallow(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return
		}
		switch stripeLockOp(pkg, call) {
		case lockAcquire:
			if held > 0 && report != nil {
				report(call, "second chunk-stripe lock acquired")
			}
			held++
			return
		case lockRelease:
			if !deferred[call] && held > 0 {
				held--
			}
			return
		}
		if held > 0 {
			if onCall != nil {
				onCall(call)
			}
			if callee := g.calleeNode(call); callee != nil && acquires[callee] && report != nil {
				report(call, "call into a stripe-acquiring function")
			}
		}
	})
}

type lockOp int

const (
	lockNone lockOp = iota
	lockAcquire
	lockRelease
)

// stripeLockOp classifies st.mu.Lock()/Unlock() calls where st is a
// chunkStripe.
func stripeLockOp(pkg *Package, call *ast.CallExpr) lockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return lockNone
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "mu" {
		return lockNone
	}
	if recv, _ := namedRecv(pkg, field); recv != "chunkStripe" {
		return lockNone
	}
	return op
}

// callsOwnFuncParam reports whether call invokes a func-typed parameter
// of n directly (fn(...) where fn is one of n's parameters).
func callsOwnFuncParam(pkg *Package, n *funcNode, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pkg.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return false
	}
	var params *ast.FieldList
	if n.decl != nil {
		params = n.decl.Type.Params
	} else {
		params = n.lit.Type.Params
	}
	if params == nil {
		return false
	}
	for _, f := range params.List {
		for _, name := range f.Names {
			if pkg.TypesInfo.Defs[name] == v {
				return true
			}
		}
	}
	return false
}
