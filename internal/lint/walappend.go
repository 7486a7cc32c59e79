package lint

// walappend preserves the single-append-path invariant from the sharded
// WAL work: outside internal/wal itself, only the sanctioned wrappers —
// Store.walAppendLane, Store.walAppendBatch, and the checkpoint
// writer server.checkpointLane — may call the append methods of
// wal.Log/wal.MultiLog. Everything else must go through
// walAppendChunk/walAppendMeta/walBatch so that charge accounting and
// lane routing cannot be bypassed.

import (
	"go/ast"
)

// sanctionedAppenders lists the function names allowed to call wal
// append methods directly from outside the wal package.
var sanctionedAppenders = map[string]bool{
	"walAppendLane":  true,
	"walAppendBatch": true,
	"checkpointLane": true,
}

// walAppendMethods are the raw append entry points on wal types.
var walAppendMethods = map[string]bool{"Append": true, "AppendV": true, "AppendNV": true}

var walAppendAnalyzer = &Analyzer{
	Name: "walappend",
	Doc:  "only sanctioned sites may call wal.Log/wal.MultiLog append methods",
	Run:  runWalAppend,
}

func runWalAppend(pass *Pass) {
	pkg := pass.Pkg
	if lastElem(pkg.BasePath) == "wal" {
		return // the wal package is the append path
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sanctioned := sanctionedAppenders[fd.Name.Name]
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !walAppendMethods[sel.Sel.Name] {
					return true
				}
				recv, recvPkg := namedRecv(pkg, sel)
				if lastElem(recvPkg) != "wal" || (recv != "Log" && recv != "MultiLog") {
					return true
				}
				if !sanctioned {
					pass.Reportf(call.Pos(),
						"direct wal %s call outside the sanctioned append path; route through walAppendChunk/walAppendMeta/walBatch so lane routing and charge accounting stay on the single append path", sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func lastElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
