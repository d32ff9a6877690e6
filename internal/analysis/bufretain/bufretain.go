// Package bufretain enforces the borrowed-buffer lifetime contract from
// PR 6: the minidb engine hands out result/error slices that it re-slices
// on the next RunTestCase, and the *Result objects and rows they reach are
// engine-owned too, reused by the same call. So callers may read them,
// render them, or deep-copy them — but must not store the slice, its
// elements, or a struct carrying it into a field or package-level variable,
// where they would silently change when the engine runs again.
//
// The owning package annotates the field:
//
//	// Results holds per-statement results.
//	//
//	//lego:borrowed valid until the next RunTestCase on the same engine
//	Results []*Result
//
// and the analyzer exports a BorrowedFact on it. In every *other* package
// (the owner is free to manage its own buffers) the analyzer reports:
//
//   - assignments whose right side reads a borrowed field — including a
//     re-slice x.F[a:b], which shares the backing array — when the left
//     side outlives the statement (a field, an element of a field, or a
//     package-level variable)
//   - on such assignments, an element x.F[i], or anything reached through
//     one whose type can alias memory (x.F[i].Rows, but not x.F[i].Msg),
//     and a spread append(dst, x.F...), which copies the engine's pointers
//   - assignments storing a whole struct value whose type directly carries
//     a borrowed field into such a location
//   - borrowed values placed into composite literals or appended (without
//     ...) onto another slice, both of which are how retained aggregates
//     are built
//
// Reading elements into locals is fine. The sanctioned way to keep a result
// is to render it or deep-copy it, as lego.convertResult does: a call other
// than append is taken to produce a value of its own, so an element passed
// to one is not a retention.
package bufretain

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/seqfuzz/lego/internal/analysis"
)

// BorrowedFact marks a struct field as engine-owned, valid only until the
// owner's next cycle.
type BorrowedFact struct {
	Note string `json:"note,omitempty"`
}

// AFact marks BorrowedFact as a fact.
func (*BorrowedFact) AFact() {}

// Analyzer is the bufretain analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "bufretain",
	Doc:       "fields annotated //lego:borrowed must not be stored to fields or globals by other packages",
	Run:       run,
	FactTypes: []analysis.Fact{(*BorrowedFact)(nil)},
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	c.exportFacts()
	for _, file := range pass.Files {
		c.checkFile(file)
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// exportFacts scans struct declarations for //lego:borrowed field comments.
func (c *checker) exportFacts() {
	for _, file := range c.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				note, ok := borrowedNote(f.Doc)
				if !ok {
					note, ok = borrowedNote(f.Comment)
				}
				if !ok {
					continue
				}
				for _, name := range f.Names {
					obj := c.pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if _, keyable := analysis.ObjectKeyOf(obj); !keyable {
						c.pass.Reportf(name.Pos(), "//lego:borrowed requires a field of a package-level struct type")
						continue
					}
					c.pass.ExportObjectFact(obj, &BorrowedFact{Note: note})
				}
			}
			return true
		})
	}
}

// borrowedNote extracts the note from a //lego:borrowed directive in the
// comment group, if present.
func borrowedNote(cg *ast.CommentGroup) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, cm := range cg.List {
		rest, ok := strings.CutPrefix(cm.Text, "//lego:borrowed")
		if !ok {
			continue
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

func (c *checker) checkFile(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if f, whole := c.borrowedIn(v); f != "" {
					c.report(v.Pos(), f, whole, "stored in a composite literal")
				}
			}
		case *ast.CallExpr:
			if analysis.IsBuiltin(c.pass.TypesInfo, n, "append") {
				spread := n.Ellipsis.IsValid()
				for i, arg := range n.Args {
					if i == 0 {
						continue // the destination is read, not retained
					}
					if spread && i == len(n.Args)-1 {
						continue // append(dst, x.F...) copies the elements
					}
					if f, whole := c.borrowedIn(arg); f != "" {
						c.report(arg.Pos(), f, whole, "appended to another slice")
					}
				}
			}
		}
		return true
	})
}

func (c *checker) checkAssign(as *ast.AssignStmt) {
	escaping := false
	for _, lhs := range as.Lhs {
		if c.escapes(lhs) {
			escaping = true
			break
		}
	}
	if !escaping {
		return
	}
	for _, rhs := range as.Rhs {
		if f, whole := c.borrowedIn(rhs); f != "" {
			c.report(rhs.Pos(), f, whole, "stored to a field or package-level variable")
		} else if f := c.spreadIn(rhs); f != "" {
			c.pass.Reportf(rhs.Pos(), "borrowed buffer %s spread-appended to a field or package-level variable; its elements are engine-owned and valid only until the owner's next cycle — render or deep-copy them instead", f)
		} else if f := c.elementIn(rhs); f != "" {
			c.pass.Reportf(rhs.Pos(), "element of borrowed buffer %s stored to a field or package-level variable; it is engine-owned and valid only until the owner's next cycle — render or deep-copy it instead", f)
		}
	}
}

// spreadIn finds append(dst, x.F...) of a borrowed field in e.
func (c *checker) spreadIn(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found != "" || !ok || !analysis.IsBuiltin(c.pass.TypesInfo, call, "append") || !call.Ellipsis.IsValid() {
			return found == ""
		}
		found = c.borrowedFieldIn(call.Args[len(call.Args)-1])
		return found == ""
	})
	return found
}

// elementIn finds in e an element of a borrowed field, or a value reached
// through one, whose type can alias memory. Arguments of calls other than
// append are not searched: such a call renders or copies what it is given.
func (c *checker) elementIn(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			return analysis.IsBuiltin(c.pass.TypesInfo, n, "append")
		case *ast.FuncLit:
			return false
		case ast.Expr:
			f := c.elementRoot(n)
			if f == "" {
				return true
			}
			if aliases(c.pass.TypesInfo.TypeOf(n)) {
				found = f
			}
			return false // the chain is judged by its outermost value
		}
		return true
	})
	return found
}

// elementRoot reports the borrowed field when e is x.F[i] or a selector,
// index or dereference chain rooted at one.
func (c *checker) elementRoot(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
				if f := c.borrowedField(sel); f != "" {
					return f
				}
			}
			e = x.X
		default:
			return ""
		}
	}
}

// aliases reports whether a value of type t can reach memory shared with
// its source: strings and plain scalars cannot.
func aliases(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliases(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliases(u.Elem())
	default:
		return t != nil
	}
}

// escapes reports whether writing through lhs outlives the statement scope:
// a field of anything, an element of such, or a package-level variable.
func (c *checker) escapes(lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return c.escapes(e.X)
	case *ast.StarExpr:
		return true // writing through a pointer: destination unknown, be safe
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

// borrowedIn reports whether evaluating e yields a borrowed value: the name
// of the borrowed field ("Outcome.Results"), and whether it was reached as
// a whole-struct value rather than a direct field read. Indexing a borrowed
// slice reads an element (elementIn judges where it is stored); re-slicing
// shares the backing array and is a borrow. Whole-struct borrowing is checked only
// at the top level: a plain `out.Executed` int read must not trip on the
// `out` sub-expression.
func (c *checker) borrowedIn(e ast.Expr) (field string, whole bool) {
	top := ast.Unparen(e)
	if f := c.wholeStructBorrow(top); f != "" {
		return f, true
	}
	return c.borrowedFieldIn(top), false
}

// borrowedFieldIn finds a direct borrowed-field read inside e. Unlike
// borrowedIn it never applies the whole-struct check: sub-expressions like
// the `out` in `out.Results[0]` are navigation, not retention.
func (c *checker) borrowedFieldIn(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// append has its own rules (spread copies, the destination is
			// read); the checkFile CallExpr pass owns it.
			if analysis.IsBuiltin(c.pass.TypesInfo, n, "append") {
				return false
			}
		case *ast.IndexExpr:
			// x.F[i]: the selector below is an element read, not a borrow;
			// only the selector's own base and the index can still borrow.
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && c.borrowedField(sel) != "" {
				if f := c.borrowedFieldIn(sel.X); f != "" {
					found = f
				} else if f := c.borrowedFieldIn(n.Index); f != "" {
					found = f
				}
				return false
			}
		case *ast.SelectorExpr:
			if f := c.borrowedField(n); f != "" {
				found = f
				return false
			}
		}
		return true
	})
	return found
}

// borrowedField resolves a selector to a borrowed field fact, returning its
// qualified name or "". Selections inside the owning package are exempt:
// the engine manages its own buffers.
func (c *checker) borrowedField(sel *ast.SelectorExpr) string {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	obj := s.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == c.pass.Pkg.Path() {
		return ""
	}
	var fact BorrowedFact
	if !c.pass.ObjectFact(obj, &fact) {
		return ""
	}
	key, _ := analysis.ObjectKeyOf(obj)
	return key.Object
}

// wholeStructBorrow reports whether e's type is a named struct (from
// another package) that directly carries a borrowed field.
func (c *checker) wholeStructBorrow(e ast.Expr) string {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.IsType() {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() == c.pass.Pkg.Path() {
		return ""
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		var fact BorrowedFact
		if c.pass.ObjectFact(st.Field(i), &fact) {
			key, _ := analysis.ObjectKeyOf(st.Field(i))
			return key.Object
		}
	}
	return ""
}

func (c *checker) report(pos token.Pos, field string, whole bool, how string) {
	if whole {
		c.pass.Reportf(pos, "value carrying borrowed field %s %s; it aliases an engine-owned buffer valid only until the owner's next cycle — copy the slices out instead", field, how)
		return
	}
	c.pass.Reportf(pos, "borrowed buffer %s %s; it is valid only until the owner's next cycle — copy it out with make+copy instead", field, how)
}
