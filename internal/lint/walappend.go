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
	"strings"
)

// sanctionedAppenders lists the function names allowed to call wal
// append methods directly from outside the wal package.
var sanctionedAppenders = map[string]bool{
	"walAppendLane":  true,
	"walAppendBatch": true,
	"checkpointLane": true,
}

// walAppendMethods are the raw append entry points on wal types. In the wal
// package itself, an exported Append* method of Log or MultiLog missing
// here is reported (reportUnlistedAppends), so a new entry point cannot
// slip past this list.
var walAppendMethods = map[string]bool{"Append": true, "AppendV": true, "AppendVSum": true, "AppendNV": true}

var walAppendAnalyzer = &Analyzer{
	Name: "walappend",
	Doc:  "only sanctioned sites may call wal.Log/wal.MultiLog append methods",
	Run:  runWalAppend,
}

func runWalAppend(pass *Pass) {
	pkg := pass.Pkg
	if lastElem(pkg.BasePath) == "wal" {
		// The wal package is the append path; only its entry points are
		// checked against the list.
		reportUnlistedAppends(pass, walAppendMethods)
		return
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

// reportUnlistedAppends flags, in a package named wal, every exported
// Append* method of Log or MultiLog that listed does not name: an analyzer
// that matches append calls by name would let the new name past unseen.
func reportUnlistedAppends(pass *Pass, listed map[string]bool) {
	if lastElem(pass.Pkg.BasePath) != "wal" {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "Append") || listed[fd.Name.Name] {
				continue
			}
			if recv := recvTypeName(fd); recv == "Log" || recv == "MultiLog" {
				pass.Reportf(fd.Name.Pos(),
					"wal %s.%s is an append method %s does not list; add it to the analyzer's append list or fold it into a listed method", recv, fd.Name.Name, pass.Analyzer.Name)
			}
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
