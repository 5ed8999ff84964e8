package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// ProgVet checks hand-written micro-op programs — `[]prog.Op`
// composite literals — for the structural defects prog.Validate only
// catches at run time, plus one Builder misuse it cannot see at all:
//
//   - Jump targets must land in [0, len] of the literal; LoopEnd
//     targets must additionally point backward. A raw literal's
//     targets are authored by hand (the Builder computes its own), so
//     an off-by-one here survives until an executor walks off the
//     program.
//   - Loop-counter indices (Op.Dep) must stay under prog.MaxLoopDepth:
//     executors keep counters in a fixed array sized by that constant.
//   - Spin ops must wait on a fixed address (AddrImm): a spin through
//     an address ring (AddrTable) re-targets mid-wait as the loop
//     counter moves, so the awaited condition is not monotone and the
//     spin can miss its signal forever.
//   - The literal must stay under prog.MaxOps — repetition belongs in
//     loop trip counts, not unrolled op lists.
//   - Builder.SpinGE with a constant threshold of 0 never waits
//     (every unsigned value is >= 0); the wait the author intended is
//     silently compiled out.
//
// Bounds are read from the analyzed package's view of package prog, so
// the pass never drifts from the real constants.
var ProgVet = &Analyzer{
	Name: "progvet",
	Doc:  "check hand-written prog.Op programs: targets in range, loop depth bounded, fixed-address spins, size cap, no degenerate SpinGE",
	Run:  runProgVet,
}

func runProgVet(pass *Pass) (interface{}, error) {
	progPkg := importedProg(pass.Pkg)
	if progPkg == nil {
		return nil, nil // package never touches prog; nothing to check
	}
	maxDepth := progIntConst(progPkg, "MaxLoopDepth")
	maxOps := progIntConst(progPkg, "MaxOps")

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if isProgOpSlice(pass, x) {
					checkOpLiteral(pass, x, maxDepth, maxOps)
				}
			case *ast.CallExpr:
				checkDegenerateSpin(pass, x)
			}
			return true
		})
	}
	return nil, nil
}

// importedProg finds package prog among the analyzed package's
// imports.
func importedProg(pkg *types.Package) *types.Package {
	if pkg == nil {
		return nil
	}
	for _, imp := range pkg.Imports() {
		if imp.Name() == "prog" {
			return imp
		}
	}
	return nil
}

// progIntConst resolves an exported integer constant from package
// prog, 0 if absent (which disables the dependent check rather than
// inventing a bound).
func progIntConst(pkg *types.Package, name string) int64 {
	c, ok := pkg.Scope().Lookup(name).(*types.Const)
	if !ok {
		return 0
	}
	v, _ := constant.Int64Val(constant.ToInt(c.Val()))
	return v
}

// isProgOpSlice reports whether the literal builds a slice or array of
// prog.Op.
func isProgOpSlice(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	default:
		return false
	}
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Op" && obj.Pkg() != nil && obj.Pkg().Name() == "prog"
}

// opFields extracts the constant-valued keyed fields of one Op element
// literal. Code resolves to the constant's name ("Jump", "SpinEQ", ...)
// and AMode likewise, so the pass keys on identifiers, not ordinals.
type opFields struct {
	code      string
	amode     string
	target    int64
	hasTarget bool
	dep       int64
	hasDep    bool
}

func opFieldsOf(pass *Pass, el *ast.CompositeLit) (f opFields) {
	for _, e := range el.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Code":
			f.code = constName(pass, kv.Value)
		case "AMode":
			f.amode = constName(pass, kv.Value)
		case "Target":
			f.target, f.hasTarget = intConstOf(pass, kv.Value)
		case "Dep":
			f.dep, f.hasDep = intConstOf(pass, kv.Value)
		}
	}
	return f
}

// constName resolves an expression like prog.Jump to the declared
// constant's name.
func constName(pass *Pass, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[x.Sel]; obj != nil {
			return obj.Name()
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj.Name()
		}
	}
	return ""
}

func intConstOf(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
}

func checkOpLiteral(pass *Pass, lit *ast.CompositeLit, maxDepth, maxOps int64) {
	n := int64(len(lit.Elts))
	if maxOps > 0 && n > maxOps {
		pass.Reportf(lit.Pos(), "program literal has %d ops, over prog.MaxOps %d; express repetition with loops", n, maxOps)
	}
	for i, e := range lit.Elts {
		el, ok := ast.Unparen(e).(*ast.CompositeLit)
		if !ok {
			continue
		}
		f := opFieldsOf(pass, el)
		switch f.code {
		case "Jump":
			if f.hasTarget && (f.target < 0 || f.target > n) {
				pass.Reportf(el.Pos(), "jump target %d out of range [0,%d]", f.target, n)
			}
		case "LoopEnd":
			if f.hasTarget && (f.target < 0 || f.target > int64(i)) {
				pass.Reportf(el.Pos(), "loop target %d does not point backward from op %d", f.target, i)
			}
		case "SpinEQ", "SpinNE", "SpinGE":
			if f.amode == "AddrTable" {
				pass.Reportf(el.Pos(), "%s through an address ring re-targets mid-wait; spins must watch a fixed address", f.code)
			}
		}
		if f.hasDep && maxDepth > 0 && f.dep >= maxDepth {
			pass.Reportf(el.Pos(), "loop counter %d out of range [0,%d)", f.dep, maxDepth)
		}
	}
}

// checkDegenerateSpin flags Builder.SpinGE calls whose constant
// threshold is 0.
func checkDegenerateSpin(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 3 {
		return
	}
	fn := calleeOf(pass, call)
	if fn == nil || fn.Name() != "SpinGE" || fn.Pkg() == nil || fn.Pkg().Name() != "prog" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if v, ok := intConstOf(pass, call.Args[1]); ok && v == 0 {
		pass.Reportf(call.Args[1].Pos(), "SpinGE threshold 0 is always satisfied; the spin never waits")
	}
}
