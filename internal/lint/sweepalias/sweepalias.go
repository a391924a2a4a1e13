// Package sweepalias enforces the buffer-aliasing contract of the two ways
// to read a graph.Adjacency, the edge-centric sweeps and the row cursors
// (internal/graph/adjacency.go).
//
// SweepEdges emits each node's row as slices that alias the sweep's block
// buffers (or the in-memory CSR's internal storage): they are valid only
// for the duration of the callback and are overwritten as soon as it
// returns. A callback that lets a row slice escape — assigning it to a
// captured variable, appending the slice header into a retained slice,
// sending it on a channel, storing it in a struct field or composite
// literal — keeps a window into recycled memory, and the corruption shows up as silently wrong results, not a
// crash. Copying the *elements* out (append(dst, nbrs...), copy, reading
// values) is always fine; it is retaining the slice header that is not.
//
// The rows a graph.RowCursor reads (cur.Neighbors, cur.NeighborIDs)
// follow the same discipline: they alias backend storage — the in-memory
// CSR's arrays, a cursor-owned buffer, or a pinned buffer-pool frame — and
// are valid only until the next read, so the analyzer flags callers that
// store the returned slices anywhere longer-lived than a local variable.
//
// Both kinds of row are also read-only. A write through a cursor row may
// land in a pool frame, the shared copy of a page every query reads, and a
// write through a sweep row lands in the CSR or in block buffers the sweep
// decodes from. So the analyzer flags writes whose target is a row (a
// sweep-callback row, a local holding a cursor read result, or a reslice
// of either): index assignments (row[i] = x, row[i] += x, row[i]++), copy
// into a row, and in-place sorts and reversals (sort.Slice, sort.Ints,
// slices.Sort*, slices.Reverse and friends). A local that ever holds a
// cursor row counts as a row everywhere in its function, whatever else
// it is later assigned.
package sweepalias

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
)

// Analyzer flags sweep-callback and row-cursor buffer escapes and writes.
var Analyzer = &analysis.Analyzer{
	Name: "sweepalias",
	Doc: "flags SweepEdges callbacks that let the emitted nbrs/w " +
		"row slices escape the callback (captured-variable assignment, append of " +
		"the slice header, channel send, struct-field storage), row-cursor " +
		"callers that store the returned slices outside local variables, and " +
		"writes into either kind of row (index assignment, copy, in-place sort). " +
		"Rows alias block buffers or pool frames: valid only briefly, and read-only.",
	Run: run,
}

// sweepMethods maps callback-taking sweep methods to the index of their
// callback argument.
var sweepMethods = map[string]int{
	"SweepEdges": 2,
}

// cursorReads are the row reads of a graph.RowCursor, matched on
// receivers whose type is named *Cursor (CSR.Neighbors, the one-argument
// read of the concrete CSR, is a different method).
var cursorReads = map[string]bool{
	"Neighbors":   true,
	"NeighborIDs": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checked := make(map[*ast.FuncLit]bool)
		curRows := make(map[types.Object]bool) // locals holding cursor rows
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, arg := sweepCallbackArg(call); arg != nil {
				if lit := resolveFuncLit(pass, stack, arg); lit != nil && !checked[lit] {
					checked[lit] = true
					checkCallback(pass, name, lit)
				}
			}
			if name, ok := cursorReadName(pass, call); ok {
				checkRowUse(pass, name, call, stack)
				collectCursorRows(pass, call, stack, curRows)
			}
			return true
		})
		checkCursorRowWrites(pass, f, curRows)
	}
	return nil
}

// collectCursorRows records the locals a cursor read's result is assigned
// to: both of Neighbors' results, or NeighborIDs' one.
func collectCursorRows(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, rows map[types.Object]bool) {
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(call) {
		return
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := astq.ObjectOf(pass.TypesInfo, id); obj != nil {
				rows[obj] = true
			}
		}
	}
}

// checkCursorRowWrites flags writes, anywhere in f, whose target is a
// cursor read result or a local holding one (or a local reslice of one).
func checkCursorRowWrites(pass *analysis.Pass, f *ast.File, rows map[types.Object]bool) {
	addReslices(pass, f, rows, func(types.Object) bool { return true })
	isRow := func(e ast.Expr) bool {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if _, ok := cursorReadName(pass, call); ok {
				return true
			}
		}
		return aliasesRow(pass, e, rows)
	}
	checkWrites(pass, f, isRow, func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "%s: a cursor row may alias a pinned buffer-pool frame, the page every query reads; copy the elements and write the copy", what)
	})
}

// addReslices grows rows to a fixed point with the locals assigned a
// reslice (or other alias) of a row, where keep admits the local.
func addReslices(pass *analysis.Pass, body ast.Node, rows map[types.Object]bool, keep func(types.Object) bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !aliasesRow(pass, rhs, rows) {
					continue
				}
				if lid, ok := as.Lhs[i].(*ast.Ident); ok {
					obj := astq.ObjectOf(pass.TypesInfo, lid)
					if obj != nil && keep(obj) && !rows[obj] {
						rows[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// rowWriters are the std-library functions that write into their first
// argument in place, by package path.
var rowWriters = map[string]func(name string) bool{
	"sort": func(name string) bool {
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Ints", "Float64s", "Strings":
			return true
		}
		return false
	},
	"slices": func(name string) bool { return strings.HasPrefix(name, "Sort") || name == "Reverse" },
}

// checkWrites reports every write in body whose target isRow accepts:
// an index assignment or increment, copy into it, or an in-place sort.
func checkWrites(pass *analysis.Pass, body ast.Node, isRow func(ast.Expr) bool, report func(n ast.Node, what string)) {
	indexed := func(n ast.Node, e ast.Expr) {
		if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok && isRow(ix.X) {
			report(n, "write into row "+astq.ExprString(pass.Fset, e))
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				indexed(x, lhs)
			}
		case *ast.IncDecStmt:
			indexed(x, x.X)
		case *ast.CallExpr:
			if len(x.Args) == 0 {
				return true
			}
			var what string
			switch fn := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); ok && b.Name() == "copy" {
					what = "copy"
				}
			case *ast.SelectorExpr:
				if id, ok := fn.X.(*ast.Ident); ok {
					if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
						if w := rowWriters[pn.Imported().Path()]; w != nil && w(fn.Sel.Name) {
							what = pn.Imported().Name() + "." + fn.Sel.Name
						}
					}
				}
			}
			if what == "" {
				return true
			}
			if isRow(x.Args[0]) {
				report(x, what+" into row "+astq.ExprString(pass.Fset, x.Args[0]))
			}
		}
		return true
	})
}

// sweepCallbackArg returns the callback argument of a SweepEdges method
// call.
func sweepCallbackArg(call *ast.CallExpr) (string, ast.Expr) {
	sel, _, ok := astq.MethodCall(call)
	if !ok {
		return "", nil
	}
	idx, ok := sweepMethods[sel.Sel.Name]
	if !ok || len(call.Args) <= idx {
		return "", nil
	}
	return sel.Sel.Name, call.Args[idx]
}

// cursorReadName matches row-cursor reads.
func cursorReadName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, recv, ok := astq.MethodCall(call)
	if !ok {
		return "", false
	}
	if cursorReads[sel.Sel.Name] && strings.HasSuffix(astq.NamedTypeName(pass.TypesInfo.TypeOf(recv)), "Cursor") {
		return "cursor " + sel.Sel.Name, true
	}
	return "", false
}

// resolveFuncLit resolves the callback expression to a func literal:
// either written inline, or a local variable assigned one in an enclosing
// function (the `push := func(...)` idiom the kernels use).
func resolveFuncLit(pass *analysis.Pass, stack []ast.Node, arg ast.Expr) *ast.FuncLit {
	if lit, ok := arg.(*ast.FuncLit); ok {
		return lit
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := astq.ObjectOf(pass.TypesInfo, id)
	if obj == nil {
		return nil
	}
	// Search enclosing function bodies for `id := func(...){}` / var decl.
	var found *ast.FuncLit
	for i := len(stack) - 1; i >= 0 && found == nil; i-- {
		var body *ast.BlockStmt
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				for j, lhs := range x.Lhs {
					lid, ok := lhs.(*ast.Ident)
					if !ok || astq.ObjectOf(pass.TypesInfo, lid) != obj || j >= len(x.Rhs) {
						continue
					}
					if lit, ok := x.Rhs[j].(*ast.FuncLit); ok {
						found = lit
					}
				}
			case *ast.ValueSpec:
				for j, lhs := range x.Names {
					if astq.ObjectOf(pass.TypesInfo, lhs) != obj || j >= len(x.Values) {
						continue
					}
					if lit, ok := x.Values[j].(*ast.FuncLit); ok {
						found = lit
					}
				}
			}
			return true
		})
	}
	return found
}

// checkCallback verifies that the row-slice parameters of one sweep
// callback never escape it.
func checkCallback(pass *analysis.Pass, sweepName string, lit *ast.FuncLit) {
	rows := make(map[types.Object]bool)
	if lit.Type.Params == nil {
		return
	}
	flat := flatParams(pass, lit.Type.Params)
	for i, p := range flat {
		if i == 0 {
			continue // the node id
		}
		if _, ok := p.obj.Type().Underlying().(*types.Slice); ok {
			rows[p.obj] = true
		}
	}
	if len(rows) == 0 {
		return
	}
	// Fixed point: local reslices of a row are rows too.
	addReslices(pass, lit.Body, rows, func(obj types.Object) bool { return declaredWithin(obj, lit) })
	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(), "%s: the %s callback's row slices alias the sweep's block buffers, valid only during the callback; copy the elements instead", what, sweepName)
	}
	isRow := func(e ast.Expr) bool { return aliasesRow(pass, e, rows) }
	checkWrites(pass, lit.Body, isRow, func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "%s: the %s callback's rows alias the sweep's block buffers or the CSR's own arrays and are read-only; copy the elements and write the copy", what, sweepName)
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if len(x.Lhs) != len(x.Rhs) || !aliasesRow(pass, rhs, rows) {
					continue
				}
				switch lhs := x.Lhs[i].(type) {
				case *ast.Ident:
					obj := astq.ObjectOf(pass.TypesInfo, lhs)
					if obj != nil && !declaredWithin(obj, lit) {
						report(x, "row slice assigned to captured variable "+lhs.Name)
					}
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					report(x, "row slice stored through "+astq.ExprString(pass.Fset, x.Lhs[i]))
				}
			}
		case *ast.SendStmt:
			if aliasesRow(pass, x.Value, rows) {
				report(x, "row slice sent on a channel")
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if aliasesRow(pass, el, rows) {
					report(el, "row slice stored in a composite literal")
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if aliasesRow(pass, r, rows) {
					report(x, "row slice returned from the callback")
				}
			}
		case *ast.GoStmt:
			for obj := range rows {
				if usesObject(pass, x.Call, obj) {
					report(x, "row slice captured by a goroutine that may outlive the callback")
				}
			}
		}
		return true
	})
}

// checkRowUse flags cursor rows stored anywhere other than local
// variables.
func checkRowUse(pass *analysis.Pass, name string, call *ast.CallExpr, stack []ast.Node) {
	if len(stack) < 2 {
		return
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		lhss := parent.Lhs
		if len(parent.Rhs) > 1 {
			// Parallel assignment: only the lvalue paired with this call
			// receives its result.
			lhss = nil
			for i, r := range parent.Rhs {
				if r == ast.Expr(call) && i < len(parent.Lhs) {
					lhss = parent.Lhs[i : i+1]
				}
			}
		}
		for _, lhs := range lhss {
			switch l := lhs.(type) {
			case *ast.Ident:
				obj := astq.ObjectOf(pass.TypesInfo, l)
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					pass.Reportf(parent.Pos(), "%s result stored in package-level variable %s; it aliases backend storage and is only valid until the next call reusing the buffer", name, l.Name)
				}
			case *ast.SelectorExpr, *ast.IndexExpr:
				pass.Reportf(parent.Pos(), "%s result stored through %s; it aliases backend storage and is only valid until the next call reusing the buffer", name, astq.ExprString(pass.Fset, lhs))
			}
		}
	case *ast.SendStmt:
		pass.Reportf(parent.Pos(), "%s result sent on a channel; it aliases backend storage and is only valid until the next call reusing the buffer", name)
	case *ast.CallExpr:
		if id, ok := parent.Fun.(*ast.Ident); ok && id.Name == "append" && len(parent.Args) > 1 {
			for _, a := range parent.Args[1:] {
				if a == call && parent.Ellipsis == 0 {
					pass.Reportf(call.Pos(), "%s result appended as a slice header; it aliases backend storage — append the elements with ... after copying, or copy them out", name)
				}
			}
		}
	}
}

type param struct{ obj types.Object }

func flatParams(pass *analysis.Pass, fl *ast.FieldList) []param {
	var out []param
	for _, f := range fl.List {
		for _, n := range f.Names {
			if o := pass.TypesInfo.Defs[n]; o != nil {
				out = append(out, param{obj: o})
			}
		}
	}
	return out
}

// aliasesRow reports whether e evaluates to a slice sharing a row's
// backing array: the row itself, a reslice of it, or an append retaining
// its header (append TO a row, or append of a row without ...).
func aliasesRow(pass *analysis.Pass, e ast.Expr, rows map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := astq.ObjectOf(pass.TypesInfo, x)
		return obj != nil && rows[obj]
	case *ast.ParenExpr:
		return aliasesRow(pass, x.X, rows)
	case *ast.SliceExpr:
		return aliasesRow(pass, x.X, rows)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			if aliasesRow(pass, x.Args[0], rows) {
				return true // appending TO the row: result may alias block buffers
			}
			for _, a := range x.Args[1:] {
				if x.Ellipsis == 0 && aliasesRow(pass, a, rows) {
					return true // slice header stored as an element
				}
			}
		}
	}
	return false
}

// declaredWithin reports whether obj's declaration lies inside lit.
func declaredWithin(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

// usesObject reports whether node references obj.
func usesObject(pass *analysis.Pass, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && astq.ObjectOf(pass.TypesInfo, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
