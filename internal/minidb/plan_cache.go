package minidb

// Plan cache (DESIGN.md §9): compiled programs are cached per engine, keyed
// by (expression shape, layout signature, schema fingerprint).
//
// The shape hash abstracts literal values — `x = 1` and `x = 'a'` share one
// program whose literal slots the binder fills per execution — so the mutate
// loop's value mutants all hit the cache. Column names, operators, CAST
// target types, and structural arity are part of the shape because they are
// baked into the closures. Fallback nodes (subqueries, function calls)
// contribute only their tag: their program re-enters the interpreter on the
// node bound at execution time, so any two subqueries share it.
//
// Invalidation is content-based rather than a counter: the schema
// fingerprint hashes the catalog's table/column/type structure, and any
// DDL- or TCL-category dispatch (plus SELECT INTO's materialization and the
// per-test-case reset) marks it dirty for lazy recomputation. Fuzzing
// recreates the same CREATE TABLE prologue case after case, so the
// fingerprint converges and cross-case plan reuse stays hot; any ALTER,
// DROP, rename, or rollback that actually changes structure yields a new
// fingerprint, and plans compiled against the old schema can never be
// looked up again. The cache is derived state: it is never checkpointed,
// and a size cap clears it wholesale (deterministically) rather than
// evicting by recency.

import (
	"sort"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// fnv64 offset/prime constants; two independent streams give a 128-bit hash
// so shape collisions are out of reach for any campaign length.
const (
	fnvOffset1 = 14695981039346656037
	fnvOffset2 = 9650029242287828579 // alternate offset basis
	fnvPrime   = 1099511628211
)

// hash128 accumulates a 128-bit FNV-style hash: stream 1 is FNV-1a
// (xor-then-multiply), stream 2 FNV-1 (multiply-then-xor) from a different
// offset, making the two 64-bit halves effectively independent.
type hash128 struct {
	h1, h2 uint64
}

func newHash128() hash128 {
	return hash128{h1: fnvOffset1, h2: fnvOffset2}
}

func (h *hash128) byte(b byte) {
	h.h1 = (h.h1 ^ uint64(b)) * fnvPrime
	h.h2 = (h.h2 * fnvPrime) ^ uint64(b)
}

func (h *hash128) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // terminator so "ab"+"c" differs from "a"+"bc"
}

func (h *hash128) int(n int) {
	for i := 0; i < 4; i++ {
		h.byte(byte(n >> (8 * i)))
	}
}

// Shape tags, one per compiled form. InExpr splits by form because the list
// form compiles to a real program while the subquery form is a fallback.
const (
	tagLiteral byte = iota + 1
	tagColRef
	tagStar
	tagUnary
	tagBinary
	tagIsNull
	tagLike
	tagBetween
	tagInList
	tagInSubq
	tagCase
	tagCast
	tagSubquery
	tagExists
	tagFuncCall
	tagUnknown
)

// shapeHash folds x's compiled shape into h: node tags in preorder, plus
// every detail a program bakes in (column keys, operators, flags, CAST
// types, arity) — and nothing the binder supplies (literal values, fallback
// node internals).
func shapeHash(h *hash128, x sqlast.Expr) {
	switch v := x.(type) {
	case *sqlast.Literal:
		h.byte(tagLiteral)
	case *sqlast.ColRef:
		h.byte(tagColRef)
		h.str(v.Table)
		h.str(v.Name)
	case *sqlast.Star:
		h.byte(tagStar)
	case *sqlast.Unary:
		h.byte(tagUnary)
		h.str(v.Op)
		shapeHash(h, v.X)
	case *sqlast.Binary:
		h.byte(tagBinary)
		h.str(v.Op)
		shapeHash(h, v.L)
		shapeHash(h, v.R)
	case *sqlast.IsNullExpr:
		h.byte(tagIsNull)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
	case *sqlast.LikeExpr:
		h.byte(tagLike)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
		shapeHash(h, v.Pattern)
	case *sqlast.BetweenExpr:
		h.byte(tagBetween)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
		shapeHash(h, v.Lo)
		shapeHash(h, v.Hi)
	case *sqlast.InExpr:
		if v.Query != nil {
			h.byte(tagInSubq)
			return
		}
		h.byte(tagInList)
		h.byte(boolByte(v.Not))
		h.int(len(v.List))
		shapeHash(h, v.X)
		for _, le := range v.List {
			shapeHash(h, le)
		}
	case *sqlast.CaseExpr:
		h.byte(tagCase)
		h.byte(boolByte(v.Operand != nil))
		h.int(len(v.Whens))
		h.byte(boolByte(v.Else != nil))
		if v.Operand != nil {
			shapeHash(h, v.Operand)
		}
		for i := range v.Whens {
			shapeHash(h, v.Whens[i].Cond)
			shapeHash(h, v.Whens[i].Result)
		}
		if v.Else != nil {
			shapeHash(h, v.Else)
		}
	case *sqlast.CastExpr:
		h.byte(tagCast)
		h.str(v.TypeName)
		shapeHash(h, v.X)
	case *sqlast.Subquery:
		h.byte(tagSubquery)
	case *sqlast.ExistsExpr:
		h.byte(tagExists)
	case *sqlast.FuncCall:
		h.byte(tagFuncCall)
	default:
		h.byte(tagUnknown)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// signature folds the layout into a 128-bit hash for the cache key; the full
// layout is still compared on every hit (layout.equal).
func (l *layout) signature() (uint64, uint64) {
	h := newHash128()
	h.int(len(l.frames))
	for i := range l.frames {
		f := &l.frames[i]
		h.byte(boolByte(f.lastWins))
		h.byte(boolByte(f.qkeys != nil))
		h.int(len(f.keys))
		for c := range f.keys {
			h.str(f.keys[c])
			if f.qkeys != nil {
				h.str(f.qkeys[c])
			}
		}
	}
	return h.h1, h.h2
}

// planKey is the full cache key.
type planKey struct {
	s1, s2 uint64 // expression shape
	l1, l2 uint64 // layout signature
	fp     uint64 // schema fingerprint
}

// planCacheCap bounds the per-engine cache. Reaching it clears the whole map
// — deterministic, unlike recency eviction — and in practice a campaign's
// working set of (shape, layout) pairs is far smaller.
const planCacheCap = 4096

// planCache holds one engine's compiled programs and counters.
type planCache struct {
	m        map[planKey]*program
	hits     uint64
	misses   uint64
	compiles uint64
}

// PlanStats reports plan-cache effectiveness for one engine (or, summed,
// one campaign).
type PlanStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Compiles uint64 `json:"compiles"`
}

// Add accumulates other into s.
func (s *PlanStats) Add(o PlanStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Compiles += o.Compiles
}

// PlanStats returns the engine's plan-cache counters.
func (e *Engine) PlanStats() PlanStats {
	if e.plans == nil {
		return PlanStats{}
	}
	return PlanStats{Hits: e.plans.hits, Misses: e.plans.misses, Compiles: e.plans.compiles}
}

// compiledFor returns the program for x against lay, consulting the cache.
// A hit is verified against the full layout; a verified mismatch (a true
// 128-bit collision, or a layout collision) recompiles and overwrites.
func (e *Engine) compiledFor(x sqlast.Expr, lay layout) *program {
	if e.plans == nil {
		e.plans = &planCache{m: make(map[planKey]*program, 64)}
	}
	h := newHash128()
	shapeHash(&h, x)
	l1, l2 := lay.signature()
	key := planKey{s1: h.h1, s2: h.h2, l1: l1, l2: l2, fp: e.schemaFingerprint()}
	if p, ok := e.plans.m[key]; ok && p.lay.equal(&lay) {
		e.plans.hits++
		return p
	}
	e.plans.misses++
	p := compileProgram(e, x, lay)
	e.plans.compiles++
	if len(e.plans.m) >= planCacheCap {
		e.plans.m = make(map[planKey]*program, 64)
	}
	e.plans.m[key] = p
	return p
}

// schemaFingerprint returns the content hash of the catalog structure a
// program could depend on: table names and their column names and declared
// types, in sorted order. Recomputed lazily after any dispatch that may have
// changed structure (see Engine.dispatch and reset).
func (e *Engine) schemaFingerprint() uint64 {
	if e.fpValid {
		return e.schemaFP
	}
	names := make([]string, 0, len(e.cat.Tables))
	for n := range e.cat.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	h := newHash128()
	for _, n := range names {
		t := e.cat.Tables[n]
		h.str(n)
		h.int(len(t.Cols))
		for ci := range t.Cols {
			h.str(t.Cols[ci].Name)
			h.str(t.Cols[ci].TypeName)
		}
	}
	e.schemaFP = h.h1
	e.fpValid = true
	return e.schemaFP
}

// preparedEval compiles (or fetches) x against lay and returns the program
// with a machine bound for this statement execution: literal and fallback
// slots filled, dynamic outer chain attached. rowEval binds each row via
// machine.bindRow and runs p.code.
func (e *Engine) preparedEval(x sqlast.Expr, lay layout, outer *scope) (*program, *machine) {
	p := e.compiledFor(x, lay)
	m := &machine{e: e, outer: outer, lay: &p.lay}
	if p.nlits > 0 {
		m.lits = make([]Value, 0, p.nlits)
	}
	if p.nfalls > 0 {
		m.falls = make([]sqlast.Expr, 0, p.nfalls)
	}
	m.bind(x)
	return p, m
}

// rowEval evaluates one site's expression list row by row: the SELECT
// WHERE, projection items, window partition and order keys, sort keys, join
// ON, DML WHERE and ORDER BY, and UPDATE SET. It is prepared once per
// statement, with a program per expression over one layout and the
// interpreter's own scope builder for the rows that layout mirrors
// (relEval: scopeRowInto; tableEval: rowScope; outputEval: sortRows'
// output-column map over scopeRowInto's source scope). It makes both
// decisions between the compiled programs and the interpreter, so the
// coverage-equivalence contract is kept here and not at each site:
//
//   - per statement, Config.DisablePlanCache sends every row to the
//     interpreter (the reference TestCompiledMatchesInterpreter and
//     TestFacadePlanCacheTransparent compare against), as does an UPDATE
//     trigger on the table under UPDATE SET (see tableEval);
//   - per row, a row shorter than its layout frame takes the interpreter:
//     rowScope and the output-column map bind its prefix, and
//     scopeRowInto's full-width read panics, on both paths alike.
//
// Per row a site calls bind, then eval for each expression it needs. The
// compiled per-row path allocates nothing.
type rowEval struct {
	e        *Engine
	exprs    []rowExpr
	outer    *scope
	compiled bool // false: every row takes the interpreter

	// The interpreter scope builder: rowScope(tbl, row) when tbl is
	// non-nil; else sortRows' output-column map over cols when out is set,
	// whose parent binds src as rel.scopeRowInto does (rel nil: no source);
	// else rel.scopeRowInto(row).
	tbl  *Table
	rel  *relation
	out  bool
	cols []string

	row, src []Value // the bound frame 0 and frame 1 rows
	winVals  map[*sqlast.FuncCall]Value
	interp   bool         // the bound row takes the interpreter
	sc       *scope       // the bound row's interpreter scope (interp only)
	scratch  *evalScratch // made on the first interpreter row
}

// evalScratch is what the interpreter's scope builders reuse across rows.
// It lives apart from rowEval so that the evaluator holds no pointer into
// itself and stays on its site's stack.
type evalScratch struct {
	rsc, osc scope            // scopeRowInto's scope; the output-map scope
	om       map[string]Value // sortRows' output-column map
	omLen    int              // the row length om was made for
}

// rowExpr is one expression with its program and statement-bound machine.
type rowExpr struct {
	x sqlast.Expr
	p *program // nil unless the evaluator is compiled
	m *machine
}

// newRowEval prepares xs over lay for one statement execution. compile
// false, or the plan cache disabled, sends every row to the interpreter. Nil
// entries of xs (projection stars, which the site copies itself) are never
// evaluated and get no program.
func (e *Engine) newRowEval(xs []sqlast.Expr, lay layout, outer *scope, compile bool) rowEval {
	ev := rowEval{e: e, exprs: make([]rowExpr, len(xs)), outer: outer,
		compiled: compile && !e.cfg.DisablePlanCache}
	for k, x := range xs {
		ev.exprs[k].x = x
		if ev.compiled && x != nil {
			ev.exprs[k].p, ev.exprs[k].m = e.preparedEval(x, lay, outer)
		}
	}
	return ev
}

// relEval prepares xs over rows of rel's shape, scoped by rel.scopeRowInto
// under outer.
func (e *Engine) relEval(xs []sqlast.Expr, rel *relation, outer *scope) rowEval {
	ev := e.newRowEval(xs, relLayout(rel), outer, true)
	ev.rel = rel
	return ev
}

// outputEval prepares sortRows' keys: frame 0 binds the output columns
// forward, as sortRows' output-column map does, and frame 1 (when srcRel is
// non-nil) the source row, as srcRel.scopeRowInto does.
func (e *Engine) outputEval(xs []sqlast.Expr, cols []string, srcRel *relation, outer *scope) rowEval {
	frames := make([]frame, 1, 2)
	frames[0] = frame{keys: cols, lastWins: true}
	if srcRel != nil {
		frames = append(frames, frame{keys: srcRel.cols, qkeys: srcRel.keyCache()})
	}
	ev := e.newRowEval(xs, layout{frames: frames}, outer, true)
	ev.rel, ev.out, ev.cols = srcRel, true, cols
	return ev
}

// tableEval prepares xs over t's rows, scoped by Engine.rowScope.
// betweenTriggers marks UPDATE SET expressions, which run between a row's
// BEFORE and AFTER UPDATE triggers: a trigger body may reshape t and leave a
// precomputed layout stale, so they compile only when t has no UPDATE
// trigger.
func (e *Engine) tableEval(xs []sqlast.Expr, t *Table, betweenTriggers bool) rowEval {
	compile := !e.cfg.DisablePlanCache && !(betweenTriggers &&
		(len(e.cat.triggersFor(t.Name, sqlast.TriggerBefore, sqlast.TriggerUpdate)) > 0 ||
			len(e.cat.triggersFor(t.Name, sqlast.TriggerAfter, sqlast.TriggerUpdate)) > 0))
	var lay layout
	if compile {
		lay = e.tableLayout(t)
	}
	ev := e.newRowEval(xs, lay, nil, compile)
	ev.tbl = t
	return ev
}

// bind points the evaluator at the next row (src is frame 1's row, nil
// when the layout has one frame) and decides which path evaluates it. An
// interpreter row gets its scope here, as the interpreter's loops built it
// before evaluating anything, so a short scopeRowInto row panics in bind.
//
//lego:hotpath
func (ev *rowEval) bind(row, src []Value, winVals map[*sqlast.FuncCall]Value) {
	ev.row, ev.src, ev.winVals = row, src, winVals
	switch {
	case !ev.compiled:
		ev.interp = true
	case ev.tbl != nil:
		// rowScope binds the prefix of a row its table outgrew (a
		// trigger added a column), reading the table's columns as they
		// are now.
		ev.interp = len(row) < len(ev.tbl.Cols)
	case ev.out:
		ev.interp = len(row) < len(ev.cols) || ev.rel != nil && len(src) < len(ev.rel.cols)
	default:
		ev.interp = len(row) < len(ev.rel.cols)
	}
	if ev.interp {
		ev.sc = ev.interpScope()
	}
}

// eval evaluates expression k against the bound row.
//
//lego:hotpath
func (ev *rowEval) eval(k, depth int) (Value, error) {
	ex := &ev.exprs[k]
	if ev.interp {
		return ev.e.eval(ex.x, ev.sc, depth)
	}
	ex.m.bindRow(ev.row)
	ex.m.rowB = ev.src
	ex.m.winVals = ev.winVals
	return ex.p.code(ex.m, depth)
}

// interpScope builds the bound row's scope with the interpreter's builder.
func (ev *rowEval) interpScope() *scope {
	if ev.tbl != nil {
		return ev.e.rowScope(ev.tbl, ev.row)
	}
	if ev.scratch == nil {
		ev.scratch = &evalScratch{}
	}
	x := ev.scratch
	if !ev.out {
		sc := ev.rel.scopeRowInto(ev.row, ev.outer, &x.rsc)
		sc.winVals = ev.winVals
		return sc
	}
	// One output-column map serves every row of a length: rows of one
	// result set share a length and column set, so overwriting is safe; a
	// length change (set-op arity mismatch) forces a fresh map so no stale
	// key from a longer row survives.
	if x.om == nil || len(ev.row) != x.omLen {
		x.om = make(map[string]Value, len(ev.cols))
		x.omLen = len(ev.row)
	}
	for c, name := range ev.cols {
		if c < len(ev.row) {
			x.om[name] = ev.row[c]
		}
	}
	parent := ev.outer
	if ev.rel != nil {
		parent = ev.rel.scopeRowInto(ev.src, ev.outer, &x.rsc)
	}
	x.osc.row, x.osc.parent = x.om, parent
	return &x.osc
}

// orderExprs lists the expressions of an ORDER BY clause.
func orderExprs(obs []sqlast.OrderItem) []sqlast.Expr {
	xs := make([]sqlast.Expr, len(obs))
	for k := range obs {
		xs[k] = obs[k].X
	}
	return xs
}
