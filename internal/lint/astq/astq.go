// Package astq holds the small typed-AST queries shared by the gminevet
// analyzers.
package astq

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// ImplementsError reports whether t (or *t) satisfies the error
// interface.
func ImplementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// NamedTypeName returns the name of t's (pointer-dereferenced) named or
// interface type, or "" when t is anonymous. It is how the analyzers
// recognize contract-bearing types (BufferPool, CountedPool, PagePool)
// structurally, so the analysistest fixtures can declare their own stand-ins
// instead of importing the real storage package.
func NamedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// MethodCall decomposes call into its selector and receiver expression if
// it is a method (or field-function) call, else ok=false.
func MethodCall(call *ast.CallExpr) (sel *ast.SelectorExpr, recv ast.Expr, ok bool) {
	s, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	return s, s.X, true
}

// ReceiverTypeName returns the named-type name of a method call's
// receiver ("" for package-qualified calls and anonymous types).
func ReceiverTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, recv, ok := MethodCall(call)
	if !ok {
		return ""
	}
	_ = sel
	if id, isIdent := recv.(*ast.Ident); isIdent {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return ""
		}
	}
	return NamedTypeName(info.TypeOf(recv))
}

// ExprString renders e as source text — the analyzers use it to match a
// Release(id) back to its Get(id) by spelling.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// HasDirective reports whether the doc comment group carries the given
// //-directive line (e.g. "//gmine:hotpath").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// ObjectOf resolves an identifier to its object via Uses then Defs.
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
