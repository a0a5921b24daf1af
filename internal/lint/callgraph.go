package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural core of cdpcvet: a whole-module
// call graph over the packages lint.Load type-checked, with a local
// dataflow summary per function. Analyzers combine the two — graph
// reachability unions the per-function summaries into transitive
// facts ("every field keyOf consumes, through any helper it calls",
// "does this loop body reach a Cancel poll") without any analyzer
// re-walking other functions' bodies.
//
// Edges are deliberately conservative in the caller→callee direction:
//
//   - a direct call or method call adds an edge to the resolved callee;
//   - a *reference* to a function (a method value like
//     (*CPUStats).MemStallCycles passed to Result.Total, a function
//     assigned to a field) also adds an edge, since the referenced
//     function may run on the caller's behalf later;
//   - a call through an interface method adds class-hierarchy edges to
//     every module method that implements it (the callee set cannot be
//     narrowed without pointer analysis, and missing an implementation
//     would let a violation hide behind a dispatch).
//
// Over-approximating edges makes "X is consumed somewhere in the
// closure" checks (memokey, statsconserve) err toward silence and
// "X reaches a poll" checks (cancelpoll) err toward trusting a poll
// that a dynamic path might skip; both are the right direction for a
// lint that must not cry wolf on every indirect call.

// CGNode is one module function or method in the call graph.
type CGNode struct {
	Obj  types.Object // the *types.Func (or var-like object) declaring the function
	Pkg  *Package
	Decl *ast.FuncDecl

	// Out and In are the adjacency lists, deduplicated, in first-seen
	// (source) order so graph walks are deterministic.
	Out []*CGNode
	In  []*CGNode

	// reads and writes hold every struct field referenced anywhere in
	// the body, split by direction: reads are field values flowing out
	// of the struct, writes are assignments into it (assignment LHS,
	// ++/--, op-assign, keyed composite literals). An op-assign like
	// x.F += e is both.
	reads  map[*types.Var]bool
	writes map[*types.Var]bool

	outSet map[*CGNode]bool
}

// Reads reports whether the function's own body reads field f.
func (n *CGNode) Reads(f *types.Var) bool { return n.reads[f] }

// CallGraph is the whole-module graph plus lookup indexes.
type CallGraph struct {
	prog  *Program
	nodes map[types.Object]*CGNode
	order []*CGNode // deterministic (package, file, declaration) order
}

// CallGraph builds (once) and returns the module call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// NodeOf returns the graph node declaring obj, or nil.
func (cg *CallGraph) NodeOf(obj types.Object) *CGNode { return cg.nodes[obj] }

// Nodes returns every node in deterministic declaration order.
func (cg *CallGraph) Nodes() []*CGNode { return cg.order }

func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{prog: prog, nodes: map[types.Object]*CGNode{}}

	// Pass 1: a node per function/method declaration, in source order.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				n := &CGNode{
					Obj: obj, Pkg: pkg, Decl: fd,
					reads:  map[*types.Var]bool{},
					writes: map[*types.Var]bool{},
					outSet: map[*CGNode]bool{},
				}
				cg.nodes[obj] = n
				cg.order = append(cg.order, n)
			}
		}
	}

	// Concrete named types of the module, for interface dispatch.
	var named []*types.Named
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				if _, isIface := nt.Underlying().(*types.Interface); !isIface {
					named = append(named, nt)
				}
			}
		}
	}

	// Pass 2: edges and field summaries.
	for _, n := range cg.order {
		summarize(cg, n, named)
	}
	return cg
}

// summarize walks one function body, filling the node's field summary
// and out-edges (which also populates callees' in-edges).
func summarize(cg *CallGraph, n *CGNode, named []*types.Named) {
	info := n.Pkg.Info

	// Role pre-pass: identifiers that stand in write (or read+write)
	// position, so the main walk can classify field mentions. Keys of
	// keyed struct literals count as writes — `specKey{Workload: w}`
	// populates the field exactly like an assignment would.
	const (
		roleWrite = 1 << iota
		roleRead
	)
	role := map[*ast.Ident]int{}
	markLHS := func(e ast.Expr, r int) {
		// Unwrap to the selector actually being stored through:
		// (*r).PerCPU[i].Field writes Field and reads the path above it
		// (the normal walk books the path reads).
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				if sel, ok := e.(*ast.SelectorExpr); ok {
					role[sel.Sel] |= r
				}
				return
			}
		}
	}
	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			r := roleWrite
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				r |= roleRead // op-assign reads the old value too
			}
			for _, lhs := range s.Lhs {
				markLHS(lhs, r)
			}
		case *ast.IncDecStmt:
			markLHS(s.X, roleWrite|roleRead)
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
							role[key] |= roleWrite
						}
					}
				}
			}
		}
		return true
	})

	addEdge := func(callee types.Object) {
		target := cg.nodes[callee]
		if target == nil || target == n || n.outSet[target] {
			return
		}
		n.outSet[target] = true
		n.Out = append(n.Out, target)
		target.In = append(target.In, n)
	}

	ast.Inspect(n.Decl, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.Ident:
			switch obj := info.Uses[x].(type) {
			case *types.Var:
				if !obj.IsField() {
					return true
				}
				r := role[x]
				if r&roleWrite != 0 {
					n.writes[obj] = true
				}
				if r&roleRead != 0 || r == 0 {
					n.reads[obj] = true
				}
			case *types.Func:
				addEdge(obj)
			}
		case *ast.SelectorExpr:
			// Dispatch through an interface method: add an edge to every
			// module implementation (class-hierarchy analysis).
			sel, ok := info.Selections[x]
			if !ok || sel.Kind() != types.MethodVal {
				return true
			}
			recv := sel.Recv()
			iface, ok := recv.Underlying().(*types.Interface)
			if !ok {
				return true
			}
			name := x.Sel.Name
			for _, nt := range named {
				ptr := types.NewPointer(nt)
				if !types.Implements(nt, iface) && !types.Implements(ptr, iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(ptr, true, nt.Obj().Pkg(), name); m != nil {
					addEdge(m)
				}
			}
		}
		return true
	})
}

// Reachable returns every node reachable from roots (roots included),
// in breadth-first deterministic order.
func (cg *CallGraph) Reachable(roots []*CGNode) map[*CGNode]bool {
	seen := map[*CGNode]bool{}
	queue := append([]*CGNode(nil), roots...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		queue = append(queue, n.Out...)
	}
	return seen
}

// reachesAny reports whether any of targets is reachable from start
// (start itself counts).
func (cg *CallGraph) reachesAny(start *CGNode, targets map[*CGNode]bool) bool {
	seen := map[*CGNode]bool{}
	queue := []*CGNode{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil || seen[n] {
			continue
		}
		if targets[n] {
			return true
		}
		seen[n] = true
		queue = append(queue, n.Out...)
	}
	return false
}

// closure unions one per-node summary set over everything reachable
// from roots.
func (cg *CallGraph) closure(roots []*CGNode, pick func(*CGNode) map[*types.Var]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for n := range cg.Reachable(roots) {
		for f := range pick(n) {
			out[f] = true
		}
	}
	return out
}

// ReadClosure returns every field read anywhere reachable from roots.
func (cg *CallGraph) ReadClosure(roots []*CGNode) map[*types.Var]bool {
	return cg.closure(roots, func(n *CGNode) map[*types.Var]bool { return n.reads })
}

// WriteClosure returns every field written (assigned, ++/--, op-assign
// or populated via a keyed composite literal) anywhere reachable from
// roots.
func (cg *CallGraph) WriteClosure(roots []*CGNode) map[*types.Var]bool {
	return cg.closure(roots, func(n *CGNode) map[*types.Var]bool { return n.writes })
}

// PkgNodes returns the graph nodes declared in pkg, in source order.
func (cg *CallGraph) PkgNodes(pkg *Package) []*CGNode {
	var out []*CGNode
	for _, n := range cg.order {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// fieldVar returns the field named name of the named struct type
// declared in pkg, or nil.
func fieldVar(pkg *Package, typeName, name string) *types.Var {
	for _, f := range structFields(pkg, typeName) {
		if f.Name() == name {
			return f
		}
	}
	return nil
}
