// Package hotalloc guards the zero-alloc kernels. Functions annotated
// with a //gmine:hotpath directive — the paged/in-memory sweep cores, the
// row-cursor reads, the warm BufferPool Get/Release path —
// are the ones the testing.AllocsPerRun guards pin at zero allocations
// per warm call; this analyzer rejects allocation-inducing constructs in
// their bodies at compile time, so a regression is caught at the call
// site that introduces it rather than by a benchmark diff three PRs
// later.
//
// Flagged constructs: make/new, slice- or map-typed and pointer composite
// literals, func literals (closure captures), fmt.Sprint-family calls,
// append growing a slice that is not a parameter of the hot function, and
// explicit conversions to interface types (boxing).
//
// Allowed without suppression, because the contract is zero allocations
// on the *warm* path:
//
//   - constructs guarded by a capacity/emptiness check (an enclosing if
//     whose condition tests cap(...), len(...), or == nil /
//     != nil) — the amortized buffer-growth idiom;
//   - error construction (errors.New, fmt.Errorf, composite literals of
//     error types): error paths are cold by definition.
//
// Anything else needs a //lint:ignore hotalloc <why> justification.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
)

// Directive is the doc-comment marker that opts a function into the
// zero-alloc guard.
const Directive = "//gmine:hotpath"

// Analyzer flags allocation-inducing constructs inside //gmine:hotpath
// functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-inducing constructs (make, closures, fmt.Sprint*, " +
		"append to non-parameter slices, interface boxing) inside functions " +
		"marked //gmine:hotpath — the kernels whose AllocsPerRun guards pin " +
		"zero allocations per warm call. Capacity-guarded growth and error " +
		"construction are exempt.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !astq.HasDirective(fd.Doc, Directive) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc walks one hotpath function body keeping the enclosing-node
// stack, so a construct can be excused by a surrounding growth guard.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramObjs(pass.TypesInfo, fd)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "closure in //gmine:hotpath function %s allocates when it captures variables", fd.Name.Name)
			return false // don't descend: the closure body runs under its own rules
		case *ast.CallExpr:
			checkCall(pass, fd, x, params, stack)
		case *ast.CompositeLit:
			checkComposite(pass, fd, x, stack)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := x.X.(*ast.CompositeLit); ok {
					t := pass.TypesInfo.TypeOf(cl)
					if !astq.ImplementsError(t) && !guarded(stack) {
						pass.Reportf(x.Pos(), "&composite literal allocates in //gmine:hotpath function %s", fd.Name.Name)
					}
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, params map[types.Object]bool, stack []ast.Node) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fun] {
		case types.Universe.Lookup("make"), types.Universe.Lookup("new"):
			if !guarded(stack) {
				pass.Reportf(call.Pos(), "%s allocates in //gmine:hotpath function %s; guard it with a capacity check or hoist it out of the hot path", fun.Name, fd.Name.Name)
			}
			return
		case types.Universe.Lookup("append"):
			checkAppend(pass, fd, call, params)
			return
		}
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			if pn, isPkg := pass.TypesInfo.Uses[pkg].(*types.PkgName); isPkg && pn.Imported().Path() == "fmt" {
				switch fun.Sel.Name {
				case "Sprintf", "Sprint", "Sprintln", "Appendf", "Append", "Appendln":
					pass.Reportf(call.Pos(), "fmt.%s allocates in //gmine:hotpath function %s", fun.Sel.Name, fd.Name.Name)
					return
				}
			}
		}
	}
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) && !astq.IsErrorType(tv.Type) {
			if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isPointerLike(at) {
				pass.Reportf(call.Pos(), "conversion to interface type boxes its operand in //gmine:hotpath function %s", fd.Name.Name)
			}
		}
	}
}

// checkAppend flags append calls whose destination is not a parameter of
// the hot function: appending into a parameter is the documented
// append-into-caller-buffer contract (amortized growth the caller owns),
// while growing a local or captured slice is fresh garbage per call.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, params map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := rootIdent(call.Args[0])
	if dst == nil {
		pass.Reportf(call.Pos(), "append to a non-parameter slice allocates in //gmine:hotpath function %s", fd.Name.Name)
		return
	}
	obj := astq.ObjectOf(pass.TypesInfo, dst)
	if obj == nil || !params[obj] {
		pass.Reportf(call.Pos(), "append grows non-parameter slice %s in //gmine:hotpath function %s; reuse a caller-owned buffer", dst.Name, fd.Name.Name)
	}
}

func checkComposite(pass *analysis.Pass, fd *ast.FuncDecl, cl *ast.CompositeLit, stack []ast.Node) {
	// &T{} is handled (with the error-type exemption) at the UnaryExpr.
	if len(stack) >= 2 {
		if ue, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && ue.Op == token.AND && ue.X == cl {
			return
		}
	}
	switch pass.TypesInfo.TypeOf(cl).Underlying().(type) {
	case *types.Slice, *types.Map:
		if !guarded(stack) {
			pass.Reportf(cl.Pos(), "slice/map literal allocates in //gmine:hotpath function %s", fd.Name.Name)
		}
	}
}

// guarded reports whether any enclosing if-condition tests capacity,
// length or nil-ness — the amortized-growth idiom ("allocate only when
// the reusable buffer is too small or absent").
func guarded(stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		isGuard := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			switch y := c.(type) {
			case *ast.CallExpr:
				if id, ok := y.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					isGuard = true
				}
			case *ast.Ident:
				if y.Name == "nil" {
					isGuard = true
				}
			}
			return !isGuard
		})
		if isGuard {
			return true
		}
	}
	return false
}

// paramObjs collects the parameter and receiver objects of fd, including
// named results (append-into-result is still caller-visible reuse).
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					out[o] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	add(fd.Type.Results)
	return out
}

// rootIdent digs the base identifier out of expressions like x, *x,
// x.f, x[i] — the storage being appended into.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPointerLike reports types whose interface boxing does not allocate
// (the data word holds the pointer itself).
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
