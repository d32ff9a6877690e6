package minidb

import (
	"math"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// binding names slot of a frame's row under key: a bare column name, or
// "qualifier.column".
type binding struct {
	key  string
	slot int
}

// frame binds a row to names. binds is built once per row layout and lists
// the keys in precedence order, so the first match wins; vals is the row
// its slots index. Binding the next row of a layout only swaps vals.
type frame struct {
	binds []binding
	vals  []Value
}

// get returns the value bound under name, or under table.name when table
// is non-empty. It compares the qualified key piecewise, so resolving a
// qualified column builds no string.
//
//lego:hotpath
func (f *frame) get(table, name string) (Value, bool) {
	for _, b := range f.binds {
		if k := b.key; table == "" && k == name || table != "" && len(k) == len(table)+1+len(name) &&
			k[len(table)] == '.' && k[:len(table)] == table && k[len(table)+1:] == name {
			return f.vals[b.slot], true
		}
	}
	return Value{}, false
}

// scope is the name-resolution scope for expression evaluation: the bound
// row's frame, chained through parent for correlated subqueries and
// user-function parameters.
type scope struct {
	frame
	group     [][]Value          // rows of the current group for aggregates
	groupKeys []binding          // the keys group rows bind under
	winCalls  []*sqlast.FuncCall // the windowed calls of the bound row,
	winVals   []Value            // and their values
	parent    *scope
}

// emptyScope is the shared binding-free scope for evaluating expressions
// that have no row context (INSERT values, column defaults, SET values).
// It is read-only by contract: eval never writes a scope, and every site
// that binds values constructs its own scope. Sharing one instance keeps
// those call sites allocation-free.
var emptyScope = &scope{}

// lookup resolves name (table.name when table is non-empty) through the
// scope chain, innermost first.
//
//lego:hotpath
func (s *scope) lookup(table, name string) (Value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.get(table, name); ok {
			return v, true
		}
	}
	return Value{}, false
}

const maxEvalDepth = 24

// maxConcatBytes caps a || result. A trigger that doubles a column on every
// fire (SET c = c || c) otherwise grows it exponentially until the process
// runs out of memory, which no recover can contain.
const maxConcatBytes = 1 << 20

// eval evaluates e in scope sc.
func (e *Engine) eval(x sqlast.Expr, sc *scope, depth int) (Value, error) {
	if depth > maxEvalDepth {
		return Null(), errValue("expression nesting too deep")
	}
	if err := e.chargeStep(); err != nil {
		return Null(), err
	}
	switch v := x.(type) {
	case *sqlast.Literal:
		switch v.Kind {
		case sqlast.LitNull:
			return Null(), nil
		case sqlast.LitInt:
			return Int(v.Int), nil
		case sqlast.LitFloat:
			return Float(v.Float), nil
		case sqlast.LitString:
			return Text(v.Str), nil
		default:
			return Bool(v.Bool), nil
		}

	case *sqlast.ColRef:
		e.hit(pEvalColRef)
		if val, ok := sc.lookup(v.Table, v.Name); ok {
			return val, nil
		}
		// domain CHECK uses the pseudo-column VALUE
		if strings.EqualFold(v.Name, "VALUE") {
			if val, ok := sc.lookup("", "VALUE"); ok {
				return val, nil
			}
		}
		if v.Table != "" {
			return Null(), errValue("column %q does not exist", v.Table+"."+v.Name)
		}
		return Null(), errValue("column %q does not exist", v.Name)

	case *sqlast.Star:
		return Null(), errValue("* is not valid in this context")

	case *sqlast.Unary:
		val, err := e.eval(v.X, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		switch v.Op {
		case "-":
			switch val.K {
			case KInt:
				return Int(-val.I), nil
			case KFloat:
				return Float(-val.F), nil
			case KNull:
				return Null(), nil
			default:
				if f, ok := val.numeric(); ok {
					return Float(-f), nil
				}
				return Null(), errValue("cannot negate %s", val.String())
			}
		case "NOT":
			if val.IsNull() {
				return Null(), nil
			}
			return Bool(!val.Truthy()), nil
		default:
			return val, nil
		}

	case *sqlast.Binary:
		return e.evalBinary(v, sc, depth)

	case *sqlast.IsNullExpr:
		e.hit(pEvalIsNull)
		val, err := e.eval(v.X, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if v.Not {
			return Bool(!val.IsNull()), nil
		}
		return Bool(val.IsNull()), nil

	case *sqlast.LikeExpr:
		e.hit(pEvalLike)
		val, err := e.eval(v.X, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		pat, err := e.eval(v.Pattern, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if val.IsNull() || pat.IsNull() {
			return Null(), nil
		}
		m := likeMatch(pat.String(), val.String())
		if v.Not {
			m = !m
		}
		return Bool(m), nil

	case *sqlast.BetweenExpr:
		e.hit(pEvalBetween)
		val, err := e.eval(v.X, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		lo, err := e.eval(v.Lo, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		hi, err := e.eval(v.Hi, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if val.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		in := Compare(val, lo) >= 0 && Compare(val, hi) <= 0
		if v.Not {
			in = !in
		}
		return Bool(in), nil

	case *sqlast.InExpr:
		return e.evalIn(v, sc, depth)

	case *sqlast.CaseExpr:
		e.hit(pEvalCase)
		if v.Operand != nil {
			op, err := e.eval(v.Operand, sc, depth+1)
			if err != nil {
				return Null(), err
			}
			for _, w := range v.Whens {
				cv, err := e.eval(w.Cond, sc, depth+1)
				if err != nil {
					return Null(), err
				}
				if !cv.IsNull() && !op.IsNull() && Equal(op, cv) {
					return e.eval(w.Result, sc, depth+1)
				}
			}
		} else {
			for _, w := range v.Whens {
				cv, err := e.eval(w.Cond, sc, depth+1)
				if err != nil {
					return Null(), err
				}
				if cv.Truthy() {
					return e.eval(w.Result, sc, depth+1)
				}
			}
		}
		if v.Else != nil {
			e.hit(pEvalCaseElse)
			return e.eval(v.Else, sc, depth+1)
		}
		return Null(), nil

	case *sqlast.CastExpr:
		e.hit(pEvalCast)
		val, err := e.eval(v.X, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		return CoerceToColumn(affinity(v.TypeName), val), nil

	case *sqlast.Subquery:
		e.hit(pEvalSubquery)
		rows, _, err := e.execSelect(v.Query, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if len(rows) == 0 {
			return Null(), nil
		}
		if len(rows[0]) == 0 {
			return Null(), nil
		}
		return rows[0][0], nil

	case *sqlast.ExistsExpr:
		e.hit(pEvalExists)
		rows, _, err := e.execSelect(v.Query, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		got := len(rows) > 0
		if v.Not {
			got = !got
		}
		return Bool(got), nil

	case *sqlast.FuncCall:
		return e.evalFunc(v, sc, depth)

	default:
		return Null(), errValue("unsupported expression %T", x)
	}
}

func (e *Engine) evalBinary(v *sqlast.Binary, sc *scope, depth int) (Value, error) {
	// Short-circuit three-valued logic.
	if v.Op == "AND" || v.Op == "OR" {
		e.hit(pEvalLogic)
		l, err := e.eval(v.L, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if v.Op == "AND" {
			if !l.IsNull() && !l.Truthy() {
				return Bool(false), nil
			}
			r, err := e.eval(v.R, sc, depth+1)
			if err != nil {
				return Null(), err
			}
			if !r.IsNull() && !r.Truthy() {
				return Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return Null(), nil
			}
			return Bool(true), nil
		}
		if !l.IsNull() && l.Truthy() {
			return Bool(true), nil
		}
		r, err := e.eval(v.R, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if !r.IsNull() && r.Truthy() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(false), nil
	}

	l, err := e.eval(v.L, sc, depth+1)
	if err != nil {
		return Null(), err
	}
	r, err := e.eval(v.R, sc, depth+1)
	if err != nil {
		return Null(), err
	}

	switch v.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		e.hit(pEvalCompare)
		if l.IsNull() || r.IsNull() {
			e.hit(pEvalCompareNull)
			return Null(), nil
		}
		c := Compare(l, r)
		switch v.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}

	case "||":
		e.hit(pEvalConcat)
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		ls, rs := l.String(), r.String()
		if len(ls)+len(rs) > maxConcatBytes {
			return Null(), errValue("string concatenation exceeds %d bytes", maxConcatBytes)
		}
		return Text(ls + rs), nil

	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			e.hit(pEvalArithNull)
			return Null(), nil
		}
		// integer fast path
		if l.K == KInt && r.K == KInt {
			e.hit(pEvalArithInt)
			switch v.Op {
			case "+":
				return Int(l.I + r.I), nil
			case "-":
				return Int(l.I - r.I), nil
			case "*":
				return Int(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					e.hit(pEvalDivZero)
					return Null(), errValue("division by zero")
				}
				return Int(l.I / r.I), nil
			default:
				if r.I == 0 {
					e.hit(pEvalDivZero)
					return Null(), errValue("division by zero")
				}
				return Int(l.I % r.I), nil
			}
		}
		e.hit(pEvalArithFloat)
		fl, okL := l.numeric()
		fr, okR := r.numeric()
		if !okL || !okR {
			return Null(), errValue("non-numeric operand for %s", v.Op)
		}
		switch v.Op {
		case "+":
			return Float(fl + fr), nil
		case "-":
			return Float(fl - fr), nil
		case "*":
			return Float(fl * fr), nil
		case "/":
			if fr == 0 {
				e.hit(pEvalDivZero)
				return Null(), errValue("division by zero")
			}
			return Float(fl / fr), nil
		default:
			if fr == 0 {
				e.hit(pEvalDivZero)
				return Null(), errValue("division by zero")
			}
			return Float(math.Mod(fl, fr)), nil
		}
	default:
		return Null(), errValue("unknown operator %q", v.Op)
	}
}

func (e *Engine) evalIn(v *sqlast.InExpr, sc *scope, depth int) (Value, error) {
	e.hit(pEvalIn)
	val, err := e.eval(v.X, sc, depth+1)
	if err != nil {
		return Null(), err
	}
	// The candidates go on the engine's IN stack above base; an IN nested
	// in a list element or the subquery pushes and pops above them.
	base := len(e.inVals)
	defer func() { e.inVals = e.inVals[:base] }()
	if v.Query != nil {
		e.hit(pEvalInSubq)
		rows, _, err := e.execSelect(v.Query, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		for _, r := range rows {
			if len(r) > 0 {
				e.inVals = append(e.inVals, r[0])
			}
		}
	} else {
		for _, le := range v.List {
			cv, err := e.eval(le, sc, depth+1)
			if err != nil {
				return Null(), err
			}
			e.inVals = append(e.inVals, cv)
		}
	}
	if val.IsNull() {
		return Null(), nil
	}
	sawNull := false
	for _, c := range e.inVals[base:] {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if Equal(val, c) {
			if v.Not {
				return Bool(false), nil
			}
			return Bool(true), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(v.Not), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for p != "" && p[0] == '%' {
				p = p[1:]
			}
			if p == "" {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if s == "" {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if s == "" || !equalFoldByte(p[0], s[0]) {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
}

func equalFoldByte(a, b byte) bool {
	if a >= 'A' && a <= 'Z' {
		a += 'a' - 'A'
	}
	if b >= 'A' && b <= 'Z' {
		b += 'a' - 'A'
	}
	return a == b
}
