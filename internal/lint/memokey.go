package lint

import (
	"go/types"
)

// MemoKeyAnalyzer keeps the scheduler's memo key in lockstep with the
// Spec it summarizes. The memo cache serves whole simulation results by
// specKey equality, so the keying contract has two directions:
//
//   - every exported field of harness.Spec and harness.CoRunner must be
//     consumed in the interprocedural closure of keyOf (through
//     withDefaults, processSpecs, SampleConflict, or any other helper it
//     calls) — a field keyOf never sees means two specs differing only
//     in that field share a memo slot, and one of them is served a
//     stale result fleet-wide;
//   - every field of specKey must be populated somewhere in that same
//     closure — a key field nothing writes is dead weight that reads as
//     coverage it does not provide.
//
// Unexported Spec fields are out of scope (callers cannot set them), as
// is any package that does not declare all three of Spec, specKey and
// keyOf — the analyzer anchors on that trio and stays silent elsewhere.
var MemoKeyAnalyzer = &Analyzer{
	Name: "memokey",
	Doc:  "every exported Spec/CoRunner field must feed keyOf, and every specKey field must be populated by it",
	Run:  runMemoKey,
}

func runMemoKey(pass *Pass) {
	pkg := pass.Pkg
	specFields := structFields(pkg, "Spec")
	keyFields := structFields(pkg, "specKey")
	keyObj := pkg.Types.Scope().Lookup("keyOf")
	if len(specFields) == 0 || len(keyFields) == 0 || keyObj == nil {
		return
	}
	cg := pass.Prog.CallGraph()
	root := cg.NodeOf(keyObj)
	if root == nil {
		return
	}
	roots := []*CGNode{root}
	reads := cg.ReadClosure(roots)
	writes := cg.WriteClosure(roots)

	check := func(owner string, fields []*types.Var) {
		for _, f := range fields {
			if !f.Exported() || reads[f] {
				continue
			}
			pass.Reportf(f.Pos(),
				"%s.%s is not consumed by keyOf (or any helper it calls): specs differing only in %s would share a memo slot and serve stale results",
				owner, f.Name(), f.Name())
		}
	}
	check("Spec", specFields)
	check("CoRunner", structFields(pkg, "CoRunner"))

	for _, f := range keyFields {
		if writes[f] {
			continue
		}
		pass.Reportf(f.Pos(),
			"specKey.%s is never populated by keyOf: the field suggests keying coverage it does not provide", f.Name())
	}
}
