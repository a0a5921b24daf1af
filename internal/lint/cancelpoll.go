package lint

import (
	"go/ast"
	"go/types"
)

// CancelPollAnalyzer enforces the simulator's cancellation contract:
// every nest- or region-iterating loop reachable from a Run* entry
// point must reach a poll of Options.Cancel. The server threads its context into
// that hook and promises a bounded drain on shutdown; one warm-up or
// replay loop that grinds through nests without polling turns the
// drain deadline into a lie exactly when a job is at its slowest.
//
// Concretely, in the package that declares Options.Cancel:
//
//   - entry points are the exported functions and methods whose name
//     starts with "Run";
//   - a loop qualifies when its body makes an error-returning call
//     that passes a scalar *ir.Nest (or ir.Nest) argument, or a value
//     of (or implementing) the Region interface declared next to
//     Options.Cancel — the signatures of per-nest and per-region
//     simulation work. Loops that merely
//     collect, index or measure nests (append, span arithmetic,
//     stream construction) do not qualify: they are O(nests)
//     bookkeeping, and a callee with no error result has no path to
//     propagate a Cancel error in the first place;
//   - a qualifying loop passes when its body reads Options.Cancel
//     directly or calls a function from which, transitively over the
//     call graph, some reader of Options.Cancel is reachable — the
//     poll then runs at least once per iteration.
//
// The analyzer anchors on the Options.Cancel declaration plus an
// internal/ir package declaring Nest or a Region interface in the same
// package; absent the field or both work types, it is silent.
var CancelPollAnalyzer = &Analyzer{
	Name: "cancelpoll",
	Doc:  "every nest- or region-iterating loop reachable from a Run* entry point must reach an Options.Cancel poll",
	Run:  runCancelPoll,
}

func runCancelPoll(pass *Pass) {
	pkg := pass.Pkg
	cancel := fieldVar(pkg, "Options", "Cancel")
	if cancel == nil {
		return
	}
	if _, ok := cancel.Type().Underlying().(*types.Signature); !ok {
		return
	}
	var nestType types.Type
	if irPkg := pass.Prog.Lookup("internal/ir"); irPkg != nil {
		if obj := irPkg.Types.Scope().Lookup("Nest"); obj != nil {
			nestType = obj.Type()
		}
	}
	var region *types.Interface
	if obj := pkg.Types.Scope().Lookup("Region"); obj != nil {
		region, _ = obj.Type().Underlying().(*types.Interface)
	}
	if nestType == nil && region == nil {
		return
	}

	cg := pass.Prog.CallGraph()

	// Functions that poll: any body reading the Cancel field.
	polls := map[*CGNode]bool{}
	for _, n := range cg.Nodes() {
		if n.Reads(cancel) {
			polls[n] = true
		}
	}

	// Entry points: exported Run* functions/methods of this package.
	var entries []*CGNode
	for _, n := range cg.PkgNodes(pkg) {
		name := n.Decl.Name.Name
		if len(name) >= 3 && name[:3] == "Run" && ast.IsExported(name) {
			entries = append(entries, n)
		}
	}
	if len(entries) == 0 {
		return
	}
	reachable := cg.Reachable(entries)

	// isWork reports whether an argument type carries per-nest or
	// per-region simulation work.
	isWork := func(t types.Type) bool {
		if region != nil && types.Implements(t, region) {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return nestType != nil && types.Identical(t, nestType)
	}
	returnsError := func(n *CGNode) bool {
		sig, ok := n.Obj.Type().(*types.Signature)
		if !ok {
			return false
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
				return true
			}
		}
		return false
	}
	// calleeNode resolves a call expression to its static callee's graph
	// node (nil for builtins, closures, and out-of-module functions).
	calleeNode := func(call *ast.CallExpr) *CGNode {
		fun := call.Fun
		for {
			if p, ok := fun.(*ast.ParenExpr); ok {
				fun = p.X
				continue
			}
			break
		}
		var id *ast.Ident
		switch f := fun.(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		default:
			return nil
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			return cg.NodeOf(fn)
		}
		return nil
	}

	for _, n := range cg.PkgNodes(pkg) {
		if !reachable[n] {
			continue
		}
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			var body *ast.BlockStmt
			switch l := node.(type) {
			case *ast.ForStmt:
				body = l.Body
			case *ast.RangeStmt:
				body = l.Body
			default:
				return true
			}
			work, polled := false, false
			ast.Inspect(body, func(inner ast.Node) bool {
				switch x := inner.(type) {
				case *ast.CallExpr:
					callee := calleeNode(x)
					if callee == nil {
						// Builtin, closure or out-of-module call: cannot
						// carry nest work into the graph, cannot poll.
						return true
					}
					if returnsError(callee) {
						for _, arg := range x.Args {
							if tv, ok := pkg.Info.Types[arg]; ok && isWork(tv.Type) {
								work = true
							}
						}
					}
					if cg.reachesAny(callee, polls) {
						polled = true
					}
				case *ast.Ident:
					if pkg.Info.Uses[x] == cancel {
						polled = true
					}
				}
				return true
			})
			if work && !polled {
				pass.Reportf(node.Pos(),
					"loop runs per-nest or per-region work but never reaches an Options.Cancel poll: the server's drain deadline depends on cancellation at region boundaries")
			}
			return true
		})
	}
}
