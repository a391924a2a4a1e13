// Package pinpair enforces the buffer-pool pin discipline
// (internal/storage/bufferpool.go): every BufferPool/CountedPool/PagePool
// Get or TryGet must be paired with a Release on every path out of the
// function, and every opened cursor — a row cursor keeps pages pinned
// between reads — must reach Close. A leaked pin permanently removes a frame from the pool's economy
// — under a small pool the symptom is every later query blocking in Get's
// wait loop, which is the class of bug previously only hand-audited in
// ReadBlob-style readers.
//
// The analysis is intraprocedural (function literals are checked as
// functions of their own) and deliberately conservative in what it
// reports:
//
//   - A pin acquired via `data, err := pool.Get(id)` is not charged on
//     the `if err != nil { return ... }` guard of that same err — a
//     failed Get pins nothing.
//   - A `defer pool.Release(id)` (or defer of a closure containing the
//     Release) covers the pin for the rest of the function.
//   - A Release anywhere later in the source marks the pin satisfied;
//     what is flagged is a `return` reached *before* any Release on the
//     walk, and pins with no Release at all.
//   - A page whose payload is stored into a struct field now belongs to
//     that struct (a cursor slot), whose Close releases it.
//   - A cursor is opened by any call returning a type named *Cursor
//     (adj.Cursor()) or by an open/Open method on a local of such a type
//     (the stack cursors behind one-shot row reads), and closed by Close
//     on the same variable.
//   - Cursors that escape — returned, captured by a closure, stored in a
//     field — transfer Close responsibility to the new owner and are
//     skipped. Passing a cursor to another call only lends it.
//
// Matching is structural by type name (BufferPool, CountedPool, PagePool,
// *Cursor), so fixtures and future pool views are covered without
// importing the storage package.
package pinpair

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
)

// Analyzer flags pool pins and cursors that can exit their function
// unreleased.
var Analyzer = &analysis.Analyzer{
	Name: "pinpair",
	Doc: "flags BufferPool/PagePool Get calls whose Release is not reachable on " +
		"every path out of the function (early returns before Release, or no " +
		"Release at all), and opened cursors that can exit without Close. " +
		"Escaping cursors (returned/captured/stored) transfer ownership and are skipped.",
	Run: run,
}

// poolTypeNames are the named types whose Get/Release carry the pin
// contract.
var poolTypeNames = map[string]bool{
	"BufferPool":  true,
	"CountedPool": true,
	"PagePool":    true,
}

// isCursor reports whether t is a Close-bearing cursor type, by name.
func isCursor(t types.Type) bool {
	return strings.HasSuffix(astq.NamedTypeName(t), "Cursor")
}

// pin is one outstanding obligation: a pinned page or an open cursor.
type pin struct {
	pos      ast.Node
	kind     string       // "page" or "cursor"
	recv     string       // receiver spelling, e.g. "bp" or "r.pool" (page pins)
	arg      string       // page-id argument spelling (page pins)
	obj      types.Object // the handle; for page pins, the payload variable
	errVar   types.Object // err assigned alongside the acquisition, if any
	guarded  bool         // the errVar's failure guard has been seen
	released bool
	reported bool
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Name.Name, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, "this func literal", fn.Body)
			}
			return true
		})
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
	pins []*pin
	// escaped handles and page payloads: ownership transferred out of the
	// function.
	escaped map[types.Object]bool
	// anyRelease/anyClose: the function contains at least one matching
	// Release/cursor Close. When it contains none, per-return diagnostics
	// defer to the single "never Released/Closed" report.
	anyRelease, anyClose bool
}

func checkFunc(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	w := &walker{pass: pass, escaped: escapedHandles(pass, body)}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, recv, ok := astq.MethodCall(call); ok {
			switch sel.Sel.Name {
			case "Release":
				if poolTypeNames[astq.ReceiverTypeName(pass.TypesInfo, call)] {
					w.anyRelease = true
				}
			case "Close":
				if isCursor(pass.TypesInfo.TypeOf(recv)) {
					w.anyClose = true
				}
			}
		}
		return true
	})
	w.walkStmts(body.List, nil)
	for _, p := range w.pins {
		if p.released || p.reported || w.escaped[p.obj] {
			continue
		}
		switch p.kind {
		case "page":
			pass.Reportf(p.pos.Pos(), "page pinned by %s.Get(%s) is never Released in %s; the frame stays pinned and unevictable forever", p.recv, p.arg, name)
		case "cursor":
			pass.Reportf(p.pos.Pos(), "cursor opened here is never Closed in %s; the pages it holds stay pinned and unevictable", name)
		}
	}
}

// walkStmts processes stmts in order against the open-pin list, returning
// the (possibly grown) open list at fall-through.
func (w *walker) walkStmts(stmts []ast.Stmt, open []*pin) []*pin {
	for _, s := range stmts {
		open = w.walkStmt(s, open)
	}
	return open
}

func (w *walker) walkStmt(s ast.Stmt, open []*pin) []*pin {
	switch x := s.(type) {
	case *ast.AssignStmt:
		w.applyReleases(x, open)
		open = w.acquire(x, x.Rhs, x.Lhs, open)
	case *ast.ExprStmt:
		w.applyReleases(x, open)
		open = w.acquire(x, []ast.Expr{x.X}, nil, open)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					open = w.acquire(x, vs.Values, lhs, open)
				}
			}
		}
	case *ast.DeferStmt:
		w.applyDefer(x.Call, open)
	case *ast.GoStmt:
		// A goroutine may release asynchronously; treat its releases as
		// satisfying (false-negative-tolerant).
		w.applyDefer(x.Call, open)
	case *ast.ReturnStmt:
		w.reportOpenAt(x, open)
	case *ast.BranchStmt:
		// break/continue/goto: path merging is beyond this walker.
	case *ast.BlockStmt:
		open = w.walkStmts(x.List, open)
	case *ast.IfStmt:
		open = w.walkIf(x, open)
	case *ast.ForStmt:
		if x.Init != nil {
			open = w.walkStmt(x.Init, open)
		}
		open = w.walkStmts(x.Body.List, open)
	case *ast.RangeStmt:
		open = w.walkStmts(x.Body.List, open)
	case *ast.SwitchStmt:
		if x.Init != nil {
			open = w.walkStmt(x.Init, open)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, append([]*pin(nil), open...))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, append([]*pin(nil), open...))
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, append([]*pin(nil), open...))
			}
		}
	case *ast.LabeledStmt:
		open = w.walkStmt(x.Stmt, open)
	}
	return open
}

// walkIf handles the err-guard idiom and branch-local returns.
func (w *walker) walkIf(x *ast.IfStmt, open []*pin) []*pin {
	if x.Init != nil {
		open = w.walkStmt(x.Init, open)
	}
	// Pins whose Get-assigned err is the guard condition are not charged
	// inside the failure branch: Get returned an error, nothing is pinned.
	guardObj := errGuard(w.pass, x.Cond)
	branchOpen := make([]*pin, 0, len(open))
	for _, p := range open {
		if guardObj != nil && p.errVar == guardObj && !p.guarded {
			p.guarded = true
			continue
		}
		branchOpen = append(branchOpen, p)
	}
	w.walkStmts(x.Body.List, branchOpen)
	if x.Else != nil {
		w.walkStmt(x.Else, append([]*pin(nil), open...))
	}
	return open
}

// acquire records new pins created by rhs call expressions.
func (w *walker) acquire(at ast.Node, rhs []ast.Expr, lhs []ast.Expr, open []*pin) []*pin {
	for i, r := range rhs {
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, recv, isMethod := astq.MethodCall(call)
		if !isMethod {
			continue
		}
		recvType := astq.ReceiverTypeName(w.pass.TypesInfo, call)
		var p *pin
		switch {
		case (sel.Sel.Name == "Get" || sel.Sel.Name == "TryGet") && poolTypeNames[recvType] && len(call.Args) == 1:
			p = &pin{
				pos:  call,
				kind: "page",
				recv: astq.ExprString(w.pass.Fset, recv),
				arg:  astq.ExprString(w.pass.Fset, call.Args[0]),
			}
		case strings.EqualFold(sel.Sel.Name, "open") && isCursor(w.pass.TypesInfo.TypeOf(recv)):
			// A stack cursor opened in place: x.open(...). Only a plain
			// local is tracked; opening a field is the owner's business.
			id, ok := recv.(*ast.Ident)
			if !ok {
				continue
			}
			p = &pin{pos: call, kind: "cursor", obj: astq.ObjectOf(w.pass.TypesInfo, id)}
		default:
			if !opensCursor(w.pass, call) {
				continue
			}
			p = &pin{pos: call, kind: "cursor"}
		}
		// Bind the result objects: the handle (for page pins the payload
		// variable) and any err var assigned alongside (for the err-guard
		// exemption).
		if len(rhs) == 1 {
			for j, l := range lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := astq.ObjectOf(w.pass.TypesInfo, id)
				if obj == nil {
					continue
				}
				if astq.IsErrorType(obj.Type()) {
					p.errVar = obj
				} else if (p.kind == "page" && j == 0) || (p.kind == "cursor" && isCursor(obj.Type())) {
					p.obj = obj
				}
			}
		} else if i < len(lhs) {
			if id, ok := lhs[i].(*ast.Ident); ok {
				p.obj = astq.ObjectOf(w.pass.TypesInfo, id)
			}
		}
		w.pins = append(w.pins, p)
		open = append(open, p)
	}
	return open
}

// applyReleases marks pins satisfied by Release/Close calls anywhere in
// the statement.
func (w *walker) applyReleases(s ast.Stmt, open []*pin) {
	ast.Inspect(s, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.applyReleaseCall(call, open)
		}
		return true
	})
}

// applyDefer satisfies pins released by a deferred call (direct Release/
// Close, or a closure containing them).
func (w *walker) applyDefer(call *ast.CallExpr, open []*pin) {
	w.applyReleaseCall(call, open)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				w.applyReleaseCall(c, open)
			}
			return true
		})
	}
}

func (w *walker) applyReleaseCall(call *ast.CallExpr, open []*pin) {
	sel, recv, ok := astq.MethodCall(call)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Release":
		if !poolTypeNames[astq.ReceiverTypeName(w.pass.TypesInfo, call)] || len(call.Args) != 1 {
			return
		}
		recvStr := astq.ExprString(w.pass.Fset, recv)
		argStr := astq.ExprString(w.pass.Fset, call.Args[0])
		for _, p := range open {
			if p.kind == "page" && !p.released && p.recv == recvStr && p.arg == argStr {
				p.released = true
				return
			}
		}
		// No exact (recv, id) match: satisfy the oldest open page pin on
		// the same receiver rather than report a mismatch the walker
		// cannot prove (the id may have been recomputed).
		for _, p := range open {
			if p.kind == "page" && !p.released && p.recv == recvStr {
				p.released = true
				return
			}
		}
	case "Close":
		if id, ok := recv.(*ast.Ident); ok {
			obj := astq.ObjectOf(w.pass.TypesInfo, id)
			for _, p := range open {
				if p.kind == "cursor" && !p.released && p.obj != nil && p.obj == obj {
					p.released = true
				}
			}
		}
	}
}

// reportOpenAt flags pins still open at a return.
func (w *walker) reportOpenAt(ret *ast.ReturnStmt, open []*pin) {
	for _, p := range open {
		if p.released || p.reported || w.escaped[p.obj] {
			continue
		}
		// No Release/Close anywhere in the function: the end-of-function
		// "never Released/Closed" report covers it better than one line.
		if (p.kind == "page" && !w.anyRelease) || (p.kind == "cursor" && !w.anyClose) {
			continue
		}
		pos := w.pass.Fset.Position(ret.Pos())
		switch p.kind {
		case "page":
			w.pass.Reportf(p.pos.Pos(), "page pinned by %s.Get(%s) can reach the return at line %d without Release; add a Release on this path or defer it", p.recv, p.arg, pos.Line)
		case "cursor":
			w.pass.Reportf(p.pos.Pos(), "cursor opened here can reach the return at line %d without Close; defer the Close right after opening", pos.Line)
		}
		p.reported = true
	}
}

// errGuard returns the error object tested by an `x != nil` condition.
func errGuard(pass *analysis.Pass, cond ast.Expr) types.Object {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return nil
	}
	var id *ast.Ident
	if xid, ok := be.X.(*ast.Ident); ok && xid.Name != "nil" {
		id = xid
	} else if yid, ok := be.Y.(*ast.Ident); ok && yid.Name != "nil" {
		id = yid
	}
	if id == nil {
		return nil
	}
	obj := astq.ObjectOf(pass.TypesInfo, id)
	if obj == nil || !astq.IsErrorType(obj.Type()) {
		return nil
	}
	return obj
}

// opensCursor reports whether call returns a cursor among its results.
func opensCursor(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isCursor(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// escapedHandles finds locals whose ownership leaves the function: a
// cursor that is returned, captured by a func literal or stored into a
// field/index, and any variable stored into a field — which is how a
// pinned page's payload is handed to the cursor slot that will release
// it. A cursor passed to another call is only lent.
func escapedHandles(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	escaped := make(map[types.Object]bool)
	// mark records every handle named in e — every variable at all when e
	// is being stored into a field. skipCalls leaves out handles that only
	// appear as the receiver of a method CALL: `return cur.NeighborIDs(u)`
	// hands out a row, not the cursor, while the method VALUE in
	// `return cur.Close` does carry the handle away.
	var mark func(e ast.Node, stored, skipCalls bool)
	mark = func(e ast.Node, stored, skipCalls bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if _, recv, ok := astq.MethodCall(x); ok && skipCalls {
					if _, isIdent := recv.(*ast.Ident); isIdent && isCursor(pass.TypesInfo.TypeOf(recv)) {
						for _, a := range x.Args {
							mark(a, stored, skipCalls)
						}
						return false
					}
				}
			case *ast.Ident:
				if obj := astq.ObjectOf(pass.TypesInfo, x); obj != nil && (stored || isCursor(obj.Type())) {
					escaped[obj] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				mark(r, false, true)
			}
		case *ast.FuncLit:
			mark(x, false, false)
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if i < len(x.Rhs) {
						mark(x.Rhs[i], true, false)
					} else if len(x.Rhs) == 1 {
						mark(x.Rhs[0], true, false)
					}
				}
			}
		}
		return true
	})
	return escaped
}
