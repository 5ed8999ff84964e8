package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocVet complements the runtime perf gate (`make perfcheck`, which
// fails when a hot-path benchmark's 0 allocs/op grows): inside the
// committed hot-path functions (HotPathFuncs, or any function whose doc
// carries an `// armvet:hotpath` marker) it flags constructs that force
// — or strongly invite — heap allocation:
//
//   - closure literals (captured variables escape);
//   - fmt.* calls (variadic ...interface{} boxes every argument);
//   - &T{...}, new(T), make(...) — explicit heap material;
//   - append whose result lands in a different variable than its
//     source (the usual s = append(s, ...) reuse pattern is fine);
//   - passing a non-constant, non-pointer-shaped concrete value to an
//     interface parameter (including panic(v)) — interface boxing.
//
// A construct that is deliberate (freelist-miss &event{}, rare
// capacity-shrink make) is silenced with //armvet:ignore allocvet at
// the site, keeping the exception visible in the diff.
var AllocVet = &Analyzer{
	Name: "allocvet",
	Doc:  "flag allocation-forcing constructs in the committed hot-path function list",
	Run:  runAllocVet,
}

const hotPathMarker = "armvet:hotpath"

func runAllocVet(pass *Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !isHotPath(pass, fn) {
				continue
			}
			allocCheckFunc(pass, fn)
		}
	}
	return nil, nil
}

// funcKey renders a FuncDecl of the package at pkgPath as
// "importpath.Receiver.name" / "importpath.name", the HotPathFuncs key
// format.
func funcKey(pkgPath string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkgPath + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		default:
			if id, ok := t.(*ast.Ident); ok {
				return pkgPath + "." + id.Name + "." + fn.Name.Name
			}
			return pkgPath + "." + fn.Name.Name
		}
	}
}

func isHotPath(pass *Pass, fn *ast.FuncDecl) bool {
	if HotPathFuncs[funcKey(pass.Pkg.Path(), fn)] {
		return true
	}
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.Contains(c.Text, hotPathMarker) {
				return true
			}
		}
	}
	return false
}

func allocCheckFunc(pass *Pass, fn *ast.FuncDecl) {
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path %s: captured variables escape to the heap", fn.Name.Name)
			return false // its body is cold by construction once flagged
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal in hot path %s allocates", fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			allocCheckCall(pass, fn, n, stack)
		}
		return true
	})
}

func allocCheckCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "new", "make":
				pass.Reportf(call.Pos(), "%s in hot path %s allocates", id.Name, fn.Name.Name)
			case "append":
				allocCheckAppend(pass, fn, call, stack)
			case "panic":
				if len(call.Args) == 1 {
					allocCheckBoxing(pass, fn, call.Args[0], "panic")
				}
			}
			return
		}
	}
	callee := calleeOf(pass, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates (boxes every operand)", callee.Name(), fn.Name.Name)
		return
	}
	// Interface boxing at ordinary call sites.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // type conversion
	}
	name := "call"
	if callee != nil {
		name = callee.Name()
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if call.Ellipsis != token.NoPos {
				param = last // spread: slice passed as-is, no boxing
			} else if sl, ok := last.(*types.Slice); ok {
				param = sl.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); isIface {
			allocCheckBoxing(pass, fn, arg, name)
		}
	}
}

// allocCheckBoxing reports arg if converting it to an interface
// allocates: non-constant, concrete, and not pointer-shaped (pointers,
// chans, maps and funcs ride in the interface data word directly;
// constants get static descriptors).
func allocCheckBoxing(pass *Pass, fn *ast.FuncDecl, arg ast.Expr, callee string) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value != nil || tv.IsNil() {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	pass.Reportf(arg.Pos(), "passing %s to interface parameter of %s in hot path %s boxes it onto the heap", tv.Type, callee, fn.Name.Name)
}

// allocCheckAppend flags append calls whose result does not flow back
// into the slice they extend: `dst = append(src, ...)` with different
// roots builds a fresh backing array on the hot path, and an
// unassigned append discards capacity.
func allocCheckAppend(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	var parent ast.Node
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	if as, ok := parent.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call {
		lhs := exprRoot(as.Lhs[0])
		src := exprRoot(call.Args[0])
		if lhs != "" && lhs == src {
			return
		}
		pass.Reportf(call.Pos(), "append in hot path %s grows %s into %s: fresh backing array; reuse the destination slice", fn.Name.Name, exprString(call.Args[0]), exprString(as.Lhs[0]))
		return
	}
	pass.Reportf(call.Pos(), "append result not reassigned to its source in hot path %s: grown backing array escapes", fn.Name.Name)
}

// exprRoot renders the storage root of an lvalue-ish expression:
// index, slice, paren and star layers stripped, selector chains kept
// ("b.pending[:i]" -> "b.pending").
func exprRoot(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return exprString(e)
		}
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprString(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
		return ""
	case *ast.ParenExpr:
		return exprString(x.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}
