package lint

// virtualtime keeps the virtual-time-governed packages (blob, wal, sim,
// cluster) deterministic: all simulated runs with one seed must produce
// byte-identical logs and schedules. Three things break that silently:
// wall-clock reads (time.Now and friends), the process-global math/rand
// source, and map iteration order escaping into ordered output (WAL
// records, spawn order, result slices). Each is flagged here; the
// escape hatch for genuinely real-time plumbing is a
// //blobvet:allow virtualtime <reason> directive.

import (
	"go/ast"
	"go/types"
	"strconv"
)

// virtualTimePkgs names the governed packages (by final path element).
var virtualTimePkgs = map[string]bool{"blob": true, "wal": true, "sim": true, "cluster": true}

// forbiddenTimeFuncs are wall-clock and timer entry points in package
// time. Types and constants (time.Duration, time.Millisecond) stay
// allowed — they are units, not clock reads.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// orderedSinkFuncs are calls that serialize their invocation order:
// task spawns and WAL appends. Reaching one from inside a map range
// makes map order observable. Every exported Append* method of wal.Log and
// wal.MultiLog must be listed (reportUnlistedAppends).
var orderedSinkFuncs = map[string]bool{
	"parallelDo": true, "spawn": true,
	"walAppendLane": true, "walAppendChunk": true, "walAppendMeta": true, "walAppendBatch": true,
	"Append": true, "AppendV": true, "AppendVSum": true, "AppendNV": true,
}

var virtualTimeAnalyzer = &Analyzer{
	Name: "virtualtime",
	Doc:  "virtual-time packages must not read wall clocks, use global rand, or leak map order",
	Run:  runVirtualTime,
}

func runVirtualTime(pass *Pass) {
	pkg := pass.Pkg
	if !virtualTimePkgs[lastElem(pkg.BasePath)] {
		return
	}

	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"math/rand in a virtual-time package: the global source is unseeded and unordered across runs; use sim.RNG (seeded SplitMix64)")
			}
		}
		ast.Inspect(f, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && forbiddenTimeFuncs[fn.Name()] {
				pass.Reportf(id.Pos(),
					"time.%s reads the wall clock in a virtual-time package; use the sim clock so replays stay deterministic", fn.Name())
			}
			return true
		})
	}

	reportUnlistedAppends(pass, orderedSinkFuncs)

	g := buildCallGraph(pkg)
	for _, n := range g.nodes {
		checkMapRanges(pass, g, n)
	}
}

// checkMapRanges flags map-range loops in one body whose iteration
// order can reach ordered output: an append to a slice that is not
// visibly sorted later in the same body, or a call to a spawn/WAL sink.
func checkMapRanges(pass *Pass, g *callGraph, n *funcNode) {
	pkg := g.pkg

	// Sort calls in this body, by the root identifier they sort.
	type sortCall struct {
		root string
		pos  ast.Node
	}
	var sorts []sortCall
	inspectShallow(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if p, ok := pkg.TypesInfo.Uses[id].(*types.PkgName); ok {
				path := p.Imported().Path()
				if path == "sort" || path == "slices" {
					sorts = append(sorts, sortCall{rootIdent(call.Args[0]), call})
				}
			}
		}
	})
	sortedLater := func(root string, after ast.Node) bool {
		for _, s := range sorts {
			if s.root == root && s.pos.Pos() > after.End() {
				return true
			}
		}
		return false
	}

	inspectShallow(n, func(x ast.Node) {
		rng, ok := x.(*ast.RangeStmt)
		if !ok {
			return
		}
		tv, ok := pkg.TypesInfo.Types[rng.X]
		if !ok {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		// Walk the loop body without entering nested literals (a
		// literal spawned per iteration runs later, but the spawn
		// itself is the ordered sink and is caught as a call).
		ast.Inspect(rng.Body, func(y ast.Node) bool {
			if _, ok := y.(*ast.FuncLit); ok {
				return false
			}
			call, ok := y.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if fn.Name == "append" && len(call.Args) > 0 {
					if _, isBuiltin := pkg.TypesInfo.Uses[fn].(*types.Builtin); isBuiltin {
						// A rootless target (append([]byte(nil), ...))
						// builds a fresh value per iteration; no shared
						// ordered structure observes map order.
						root := rootIdent(call.Args[0])
						if root != "" && !sortedLater(root, rng) {
							pass.Reportf(call.Pos(),
								"append to %q inside a map range with no later sort: map order becomes output order; iterate sorted keys or sort the result", root)
						}
					}
				} else if orderedSinkFuncs[fn.Name] {
					pass.Reportf(call.Pos(),
						"%s inside a map range: map iteration order reaches an ordered sink (spawn/WAL order); iterate a sorted key slice instead", fn.Name)
				}
			case *ast.SelectorExpr:
				if orderedSinkFuncs[fn.Sel.Name] {
					pass.Reportf(call.Pos(),
						"%s inside a map range: map iteration order reaches an ordered sink (spawn/WAL order); iterate a sorted key slice instead", fn.Sel.Name)
				}
			}
			return true
		})
	})
}

// rootIdent returns the leftmost identifier of an lvalue-ish
// expression: results[i] -> results, b.specs[i] -> b.
func rootIdent(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}
