// Package nodeexhaustive enforces that the hand-maintained type switches
// over sqlast node interfaces stay exhaustive as the grammar grows.
//
// PR 6 replaced render+reparse cloning with hand-written structural walkers
// (Clone, StatementTables, RewriteExpr, the minidb dispatch). Clone and SQL
// are interface methods, so a new node type without them fails to compile —
// but the type *switches* fail silently: a statement kind the table
// extractor skips breaks dependency fixing, and one the minidb dispatch
// misses is never executed. This analyzer turns a missing case into a
// vet-time diagnostic.
//
// Usage: the comment directly above a type switch declares the contract:
//
//	//lego:exhaustive Statement children
//	switch v := s.(type) {
//
// The interface is one of Statement, Expr, or TableRef; the optional mode
// narrows the required case set:
//
//   - (none)     every implementor must be handled
//   - children   implementors whose struct reaches another node through its
//     fields (there is something to descend into)
//   - statements implementors that directly carry a nested statement without
//     an intervening Expr/TableRef boundary (the set a WalkExpr
//     callback must re-enter the statement walker for)
//
// The implementor sets are computed in the package whose base name is
// "sqlast" and exported as facts, so switches in downstream packages (the
// minidb dispatch) are checked against the same inventory. As a corollary,
// declaring a type that implements one of the node interfaces outside
// sqlast is itself a diagnostic: the inventory must have a single home.
package nodeexhaustive

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/analysis"
)

// NodeFact records, for one concrete type in sqlast, which node interfaces
// it implements and whether its fields reach further nodes.
type NodeFact struct {
	Statement  bool `json:"statement,omitempty"`
	Expr       bool `json:"expr,omitempty"`
	TableRef   bool `json:"tableref,omitempty"`
	Children   bool `json:"children,omitempty"`
	Statements bool `json:"statements,omitempty"`
}

// AFact marks NodeFact as a fact.
func (*NodeFact) AFact() {}

// nodeIfaces are the sqlast interfaces whose implementor sets are tracked.
var nodeIfaces = []string{"Statement", "Expr", "TableRef"}

// Analyzer is the nodeexhaustive analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "nodeexhaustive",
	Doc:       "type switches annotated //lego:exhaustive must cover every sqlast node implementor",
	Run:       run,
	FactTypes: []analysis.Fact{(*NodeFact)(nil)},
}

func run(pass *analysis.Pass) error {
	isSQLAst := analysis.PkgBase(pass.Pkg.Path()) == "sqlast"

	// Locate the sqlast package: the analyzed package itself, or a direct
	// import of it.
	var astPkg *types.Package
	if isSQLAst {
		astPkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if analysis.PkgBase(imp.Path()) == "sqlast" {
				astPkg = imp
				break
			}
		}
	}

	var nodes map[string]*NodeFact
	if isSQLAst {
		nodes = computeNodeFacts(astPkg)
		names := make([]string, 0, len(nodes))
		for name := range nodes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			obj := astPkg.Scope().Lookup(name)
			if obj != nil {
				pass.ExportObjectFact(obj, nodes[name])
			}
		}
	} else if astPkg != nil {
		nodes = map[string]*NodeFact{}
		for _, kf := range pass.PkgObjectFacts(astPkg.Path()) {
			if nf, ok := kf.Fact.(*NodeFact); ok {
				nodes[kf.Key.Object] = nf
			}
		}
		checkForeignImplementors(pass, astPkg)
	}

	for _, file := range pass.Files {
		checkFile(pass, file, astPkg, nodes)
	}
	return nil
}

// checkForeignImplementors reports package-level types that implement an
// sqlast node interface outside sqlast: the exhaustiveness inventory (and
// the Clone machinery) assume all nodes live in one package.
func checkForeignImplementors(pass *analysis.Pass, astPkg *types.Package) {
	ifaces := lookupIfaces(astPkg)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().(*types.Named); !ok {
			continue
		}
		if types.IsInterface(tn.Type()) {
			continue
		}
		for _, ifname := range nodeIfaces {
			iface := ifaces[ifname]
			if iface == nil {
				continue
			}
			if implementsNode(tn.Type(), iface) {
				pass.Reportf(tn.Pos(), "type %s implements sqlast.%s outside package sqlast; node types must live in sqlast so Clone/exhaustiveness stay complete", name, ifname)
				break
			}
		}
	}
}

func lookupIfaces(astPkg *types.Package) map[string]*types.Interface {
	out := map[string]*types.Interface{}
	if astPkg == nil {
		return out
	}
	for _, name := range nodeIfaces {
		tn, ok := astPkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			out[name] = iface
		}
	}
	return out
}

func implementsNode(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// computeNodeFacts inventories the sqlast package: every package-level
// concrete type implementing a node interface, with its reachability flags.
func computeNodeFacts(astPkg *types.Package) map[string]*NodeFact {
	ifaces := lookupIfaces(astPkg)
	nodes := map[string]*NodeFact{}
	scope := astPkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		nf := &NodeFact{}
		if i := ifaces["Statement"]; i != nil && implementsNode(tn.Type(), i) {
			nf.Statement = true
		}
		if i := ifaces["Expr"]; i != nil && implementsNode(tn.Type(), i) {
			nf.Expr = true
		}
		if i := ifaces["TableRef"]; i != nil && implementsNode(tn.Type(), i) {
			nf.TableRef = true
		}
		if nf.Statement || nf.Expr || nf.TableRef {
			nodes[name] = nf
		}
	}
	// Reachability: walk each node's fields. Interface-typed fields count as
	// child boundaries; only a *direct* path to a Statement (not through an
	// Expr/TableRef interface, which a walker recurses through generically)
	// sets Statements.
	for name, nf := range nodes {
		tn := scope.Lookup(name).(*types.TypeName)
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		r := reach{ifaces: ifaces, nodes: nodes, seen: map[types.Type]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			r.walk(st.Field(i).Type())
		}
		nf.Children = r.children
		nf.Statements = r.statements
	}
	return nodes
}

// reach accumulates node reachability over a field-type walk.
type reach struct {
	ifaces     map[string]*types.Interface
	nodes      map[string]*NodeFact
	seen       map[types.Type]bool
	children   bool
	statements bool
}

func (r *reach) walk(t types.Type) {
	if r.seen[t] {
		return
	}
	r.seen[t] = true
	switch u := t.(type) {
	case *types.Pointer:
		r.walk(u.Elem())
	case *types.Slice:
		r.walk(u.Elem())
	case *types.Array:
		r.walk(u.Elem())
	case *types.Named, *types.Alias:
		if types.IsInterface(t) {
			if i := r.ifaces["Statement"]; i != nil && types.Identical(t.Underlying(), i) {
				r.children, r.statements = true, true
			}
			if i := r.ifaces["Expr"]; i != nil && types.Identical(t.Underlying(), i) {
				r.children = true
			}
			if i := r.ifaces["TableRef"]; i != nil && types.Identical(t.Underlying(), i) {
				r.children = true
			}
			return
		}
		name := analysis.NamedType(t)
		if nf, ok := r.nodes[name]; ok {
			r.children = true
			if nf.Statement {
				r.statements = true
			}
			return // the walker recurses into the node itself
		}
		// Non-node helper struct (ColumnDef, CTE, OrderItem, ...): its
		// fields are part of the enclosing node.
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				r.walk(st.Field(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.walk(u.Field(i).Type())
		}
	}
}

// directive is one parsed //lego:exhaustive comment.
type directive struct {
	iface string
	mode  string // "", "children", "statements"
	pos   token.Pos
}

// collectDirectives maps file line -> directive for every
// //lego:exhaustive comment in the file.
func collectDirectives(pass *analysis.Pass, file *ast.File) map[int]*directive {
	out := map[int]*directive{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lego:exhaustive")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			d := &directive{pos: c.Pos()}
			bad := len(fields) < 1 || len(fields) > 2
			if !bad {
				d.iface = fields[0]
				if len(fields) == 2 {
					d.mode = fields[1]
				}
				switch d.iface {
				case "Statement", "Expr", "TableRef":
				default:
					bad = true
				}
				switch d.mode {
				case "", "children", "statements":
				default:
					bad = true
				}
			}
			if bad {
				pass.Reportf(c.Pos(), "malformed //lego:exhaustive: want \"//lego:exhaustive <Statement|Expr|TableRef> [children|statements]\"")
				continue
			}
			out[pass.Fset.Position(c.Pos()).Line] = d
		}
	}
	return out
}

func checkFile(pass *analysis.Pass, file *ast.File, astPkg *types.Package, nodes map[string]*NodeFact) {
	dirs := collectDirectives(pass, file)
	if len(dirs) == 0 {
		return
	}
	claimed := map[*directive]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		line := pass.Fset.Position(sw.Pos()).Line
		d := dirs[line-1]
		if d == nil {
			d = dirs[line]
		}
		if d == nil {
			return true
		}
		claimed[d] = true
		checkSwitch(pass, sw, d, astPkg, nodes)
		return true
	})
	for _, d := range dirs {
		if !claimed[d] {
			pass.Reportf(d.pos, "//lego:exhaustive directive is not attached to a type switch on this or the next line")
		}
	}
}

func checkSwitch(pass *analysis.Pass, sw *ast.TypeSwitchStmt, d *directive, astPkg *types.Package, nodes map[string]*NodeFact) {
	if astPkg == nil || len(nodes) == 0 {
		pass.Reportf(d.pos, "//lego:exhaustive needs the sqlast node inventory, but this package does not import sqlast (or its facts are missing)")
		return
	}
	required := map[string]bool{}
	for name, nf := range nodes {
		var impl bool
		switch d.iface {
		case "Statement":
			impl = nf.Statement
		case "Expr":
			impl = nf.Expr
		case "TableRef":
			impl = nf.TableRef
		}
		if !impl {
			continue
		}
		switch d.mode {
		case "children":
			impl = nf.Children
		case "statements":
			impl = nf.Statements
		}
		if impl {
			required[name] = true
		}
	}

	handled := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Type == nil {
				continue
			}
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != astPkg.Path() {
				continue
			}
			handled[n.Obj().Name()] = true
		}
	}

	var missing []string
	for name := range required {
		if !handled[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	mode := d.mode
	if mode == "" {
		mode = "all"
	}
	pass.Reportf(sw.Pos(), "type switch is not exhaustive over sqlast.%s (%s mode): missing %s", d.iface, mode, strings.Join(missing, ", "))
}
