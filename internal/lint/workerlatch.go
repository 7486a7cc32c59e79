package lint

// workerlatch enforces the dispatch.go nested-wait contract: code that
// runs on a pool worker — fanTask/funcJob/laneFeed run bodies, ctxFan.run
// (a helper draining a fan it was offered), closures passed to parallelDo,
// and anything assigned to a task's fn field —
// must never acquire a key latch (an element of the store's latch table,
// taken through lockKey) and must never wait on the pool (parallelDo,
// ctxFan.join, laneFeed.Next and drain, repairDrain).
// Either one re-enters the dispatch pool from inside it: a writer holds
// the latch across its own fan join — and runs the fan's tasks on its own
// goroutine there — so a task blocking on the latch (or a worker parked
// in a nested join) closes the cycle and deadlocks under load.
//
// Caller-side code is exempt by construction: only the call graph
// reachable from task roots is checked, so writeLocked holding the
// latch across its own join stays legal.

import (
	"go/ast"
	"go/types"
)

// taskRootRecv names the receiver types whose run/replay methods
// execute on pool workers.
var taskRootRecv = map[string]bool{"fanTask": true, "funcJob": true, "laneFeed": true, "ctxFan": true}

// poolWaits maps receiver type name -> method names that block on the
// dispatch pool. The "" key holds package-level functions.
var poolWaits = map[string]map[string]bool{
	"":         {"parallelDo": true},
	"ctxFan":   {"join": true},
	"laneFeed": {"Next": true, "drain": true},
	"Store":    {"repairDrain": true},
}

var workerLatchAnalyzer = &Analyzer{
	Name: "workerlatch",
	Doc:  "pool task bodies must not take key latches or wait on the pool",
	Run:  runWorkerLatch,
}

func runWorkerLatch(pass *Pass) {
	pkg := pass.Pkg
	g := buildCallGraph(pkg)

	roots := taskRoots(g)
	if len(roots) == 0 {
		return
	}
	workers := g.reach(roots)

	for n := range workers {
		inspectShallow(n, func(x ast.Node) {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return
			}
			if isLatchAcquire(pkg, call) {
				pass.Reportf(call.Pos(),
					"key latch acquired on a pool worker (in %s); writers hold the latch across fan joins, so a worker blocking here deadlocks the pool", n.name())
			}
			if name, ok := isPoolWait(pkg, call); ok {
				pass.Reportf(call.Pos(),
					"%s called on a pool worker (in %s); nested pool waits deadlock the dispatch pool — restructure with subFan/joinSubs or move the wait to the caller", name, n.name())
			}
		})
	}
}

// taskRoots collects every body that the dispatch pool executes.
func taskRoots(g *callGraph) []*funcNode {
	var roots []*funcNode

	// run/replay methods on the task types themselves.
	for _, n := range g.nodes {
		if n.decl == nil || n.decl.Recv == nil {
			continue
		}
		if name := n.decl.Name.Name; name != "run" && name != "replay" {
			continue
		}
		if recv := recvTypeName(n.decl); taskRootRecv[recv] {
			roots = append(roots, n)
		}
	}

	// Function values handed to the pool: parallelDo arguments and
	// anything assigned to a task's fn field or fn: literal key.
	for _, n := range g.nodes {
		inspectShallow(n, func(x ast.Node) {
			switch x := x.(type) {
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && fn.Name == "parallelDo" {
					for _, arg := range x.Args {
						if r := g.funcValueNode(arg); r != nil {
							roots = append(roots, r)
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "fn" || i >= len(x.Rhs) {
						continue
					}
					if recv, _ := namedRecv(g.pkg, sel); taskRootRecv[recv] {
						if r := g.funcValueNode(x.Rhs[i]); r != nil {
							roots = append(roots, r)
						}
					}
				}
			case *ast.CompositeLit:
				tv, ok := g.pkg.TypesInfo.Types[x]
				if !ok {
					return
				}
				named, ok := deref(tv.Type).(*types.Named)
				if !ok || !taskRootRecv[named.Obj().Name()] {
					return
				}
				for _, elt := range x.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "fn" {
						if r := g.funcValueNode(kv.Value); r != nil {
							roots = append(roots, r)
						}
					}
				}
			}
		})
	}
	return roots
}

// funcValueNode resolves an expression used as a function value (a
// literal or a reference to a same-package function) to its node.
func (g *callGraph) funcValueNode(e ast.Expr) *funcNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if obj, ok := g.pkg.TypesInfo.Uses[e].(*types.Func); ok {
			return g.byObj[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := g.pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return g.byObj[obj]
		}
	}
	return nil
}

// isLatchAcquire matches x.latch.Lock() / x.latch.RLock(), and the same on
// an element, x.latch[i], where the receiver is a sync mutex — a key latch by
// contract.
func isLatchAcquire(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return false
	}
	x := ast.Unparen(sel.X)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	field, ok := x.(*ast.SelectorExpr)
	if !ok || field.Sel.Name != "latch" {
		return false
	}
	return isSyncMutex(pkg, sel.X)
}

func isSyncMutex(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.TypesInfo.Types[e]
	if !ok {
		return false
	}
	named, ok := deref(tv.Type).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

func isPoolWait(pkg *Package, call *ast.CallExpr) (string, bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if poolWaits[""][fn.Name] {
			if _, ok := pkg.TypesInfo.Uses[fn].(*types.Func); ok {
				return fn.Name, true
			}
		}
	case *ast.SelectorExpr:
		recv, _ := namedRecv(pkg, fn)
		if poolWaits[recv][fn.Sel.Name] {
			return recv + "." + fn.Sel.Name, true
		}
	}
	return "", false
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
