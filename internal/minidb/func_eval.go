package minidb

import (
	"math"
	"slices"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// aggregateNames lists the supported aggregate functions.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"GROUP_CONCAT": true, "TOTAL": true,
}

// windowNames lists functions valid only with OVER.
var windowNames = map[string]bool{
	"ROW_NUMBER": true, "RANK": true, "DENSE_RANK": true,
	"LEAD": true, "LAG": true, "NTILE": true,
}

// IsAggregate reports whether name is an aggregate function.
func IsAggregate(name string) bool { return aggregateNames[strings.ToUpper(name)] }

// exprHasAggregate reports whether x contains a non-windowed aggregate call.
func exprHasAggregate(x sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(x, func(n sqlast.Expr) {
		if fc, ok := n.(*sqlast.FuncCall); ok && fc.Over == nil && IsAggregate(fc.Name) {
			found = true
		}
	})
	return found
}

// exprHasWindow reports whether x contains a windowed function call.
func exprHasWindow(x sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(x, func(n sqlast.Expr) {
		if fc, ok := n.(*sqlast.FuncCall); ok && fc.Over != nil {
			found = true
		}
	})
	return found
}

func (e *Engine) evalFunc(fc *sqlast.FuncCall, sc *scope, depth int) (Value, error) {
	name := strings.ToUpper(fc.Name)

	// Windowed calls are pre-computed by the select executor and stashed in
	// the scope; a windowed call in any other context is a SQL error.
	if fc.Over != nil {
		for k, c := range sc.winCalls {
			if c == fc {
				e.hit(pEvalWindowFunc)
				return sc.winVals[k], nil
			}
		}
		return Null(), e.errValue("window function %s requires a query context", name)
	}

	if IsAggregate(name) {
		return e.evalAggregate(fc, sc, depth)
	}
	if windowNames[name] {
		return Null(), e.errValue("window function %s requires OVER", name)
	}

	e.hit(pEvalFunc)
	// The arguments go on the engine's value stack above base, as evalIn's
	// candidates do.
	base := len(e.vals)
	defer func() { e.vals = e.vals[:base] }()
	for _, a := range fc.Args {
		v, err := e.eval(a, sc, depth+1)
		if err != nil {
			return Null(), err
		}
		e.vals = append(e.vals, v)
	}
	args := slices.Clip(e.vals[base:])

	need := func(n int) error {
		if len(args) != n {
			return e.errValueArgs("%s expects %d argument(s), got %d", argS(name), argInt(n), argInt(len(args)))
		}
		return nil
	}

	switch name {
	case "ABS":
		if err := need(1); err != nil {
			return Null(), err
		}
		v := args[0]
		switch v.K {
		case KInt:
			if v.I < 0 {
				return Int(-v.I), nil
			}
			return v, nil
		case KFloat:
			return Float(math.Abs(v.F)), nil
		case KNull:
			return Null(), nil
		}
		if f, ok := v.numeric(); ok {
			return Float(math.Abs(f)), nil
		}
		return Null(), e.errValue("ABS of non-numeric value")
	case "LENGTH", "CHAR_LENGTH":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "UPPER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].String())), nil
	case "TRIM":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.TrimSpace(args[0].String())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return Null(), e.errValue("SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		s := args[0].String()
		start, _ := args[1].numeric()
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			i = len(s)
		}
		out := s[i:]
		if len(args) == 3 && !args[2].IsNull() {
			n, _ := args[2].numeric()
			if int(n) < len(out) && n >= 0 {
				out = out[:int(n)]
			}
		}
		return Text(out), nil
	case "REPLACE":
		if err := need(3); err != nil {
			return Null(), err
		}
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
		}
		return Text(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "NULLIF":
		if err := need(2); err != nil {
			return Null(), err
		}
		if !args[0].IsNull() && !args[1].IsNull() && Equal(args[0], args[1]) {
			return Null(), nil
		}
		return args[0], nil
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return Null(), e.errValue("ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, ok := args[0].numeric()
		if !ok {
			return Null(), e.errValue("ROUND of non-numeric value")
		}
		digits := 0.0
		if len(args) == 2 {
			digits, _ = args[1].numeric()
		}
		scale := math.Pow(10, digits)
		return Float(math.Round(f*scale) / scale), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return Null(), err
		}
		if f, ok := args[0].numeric(); ok {
			return Int(int64(math.Floor(f))), nil
		}
		return Null(), nil
	case "CEIL", "CEILING":
		if err := need(1); err != nil {
			return Null(), err
		}
		if f, ok := args[0].numeric(); ok {
			return Int(int64(math.Ceil(f))), nil
		}
		return Null(), nil
	case "MOD":
		if err := need(2); err != nil {
			return Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		a, _ := args[0].numeric()
		b, _ := args[1].numeric()
		if b == 0 {
			e.hit(pEvalDivZero)
			return Null(), e.errValue("division by zero")
		}
		return Float(math.Mod(a, b)), nil
	case "TYPEOF":
		if err := need(1); err != nil {
			return Null(), err
		}
		switch args[0].K {
		case KNull:
			return Text("null"), nil
		case KInt:
			return Text("integer"), nil
		case KFloat:
			return Text("real"), nil
		case KBool:
			return Text("boolean"), nil
		default:
			return Text("text"), nil
		}
	case "NEXTVAL":
		if err := need(1); err != nil {
			return Null(), err
		}
		e.hit(pEvalSeqNext)
		sq, ok := e.cat.Sequences[args[0].String()]
		if !ok {
			return Null(), e.errValue("sequence %q does not exist", args[0].String())
		}
		sq.Val += sq.Inc
		return Int(sq.Val), nil
	case "CURRVAL":
		if err := need(1); err != nil {
			return Null(), err
		}
		sq, ok := e.cat.Sequences[args[0].String()]
		if !ok {
			return Null(), e.errValue("sequence %q does not exist", args[0].String())
		}
		return Int(sq.Val), nil
	case "GREATEST":
		return e.foldCompare(args, func(c int) bool { return c > 0 })
	case "LEAST":
		return e.foldCompare(args, func(c int) bool { return c < 0 })
	}

	// user-defined scalar function, its parameters bound last duplicate first
	fn, ok := e.cat.Functions[fc.Name]
	if !ok {
		fn, ok = e.cat.Functions[strings.ToLower(fc.Name)]
	}
	if ok {
		e.hit(pEvalFuncUser)
		if len(args) != len(fn.Params) {
			return Null(), e.errValueArgs("function %s expects %d argument(s)", argS(fn.Name), argInt(len(fn.Params)))
		}
		keys := make([]binding, len(args))
		for i, p := range fn.Params {
			keys[len(args)-1-i] = binding{p, i}
		}
		v, err := e.eval(fn.Body, &scope{frame: frame{keys, args}, parent: sc}, depth+1)
		if err != nil {
			return Null(), err
		}
		return CoerceToColumn(affinity(fn.Returns), v), nil
	}
	return Null(), e.errValue("unknown function %s", name)
}

func (e *Engine) foldCompare(args []Value, take func(int) bool) (Value, error) {
	if len(args) == 0 {
		return Null(), e.errValue("GREATEST/LEAST need at least one argument")
	}
	best := args[0]
	for _, a := range args[1:] {
		if a.IsNull() || best.IsNull() {
			return Null(), nil
		}
		if take(Compare(a, best)) {
			best = a
		}
	}
	return best, nil
}

// evalAggregate evaluates an aggregate call over the scope's group rows.
func (e *Engine) evalAggregate(fc *sqlast.FuncCall, sc *scope, depth int) (Value, error) {
	name := strings.ToUpper(fc.Name)
	group := sc.group
	if group == nil {
		return Null(), e.errValue("aggregate %s used outside grouping context", name)
	}
	e.hit(pExecAggregate)
	if len(group) == 0 {
		e.hit(pExecAggEmpty)
	}

	// COUNT(*)
	if fc.Star {
		if name != "COUNT" {
			return Null(), e.errValue("%s(*) is not valid", name)
		}
		return Int(int64(len(group))), nil
	}
	if len(fc.Args) != 1 {
		return Null(), e.errValue("aggregate %s expects one argument", name)
	}

	x := e.takeScratch()
	defer e.putScratch(x)
	x.sc = scope{frame: frame{binds: sc.groupKeys}, parent: sc.parent}
	x.set.reset()
	vals := x.vals[:0]
	for _, row := range group {
		x.sc.vals = row
		v, err := e.eval(fc.Args[0], &x.sc, depth+1)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			if _, added := x.set.add(v); !added {
				continue
			}
		}
		vals = append(vals, v)
	}
	x.vals = vals

	switch name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "TOTAL":
		if len(vals) == 0 {
			if name == "TOTAL" {
				return Float(0), nil
			}
			return Null(), nil
		}
		allInt := true
		var fs float64
		var is int64
		for _, v := range vals {
			f, ok := v.numeric()
			if !ok {
				return Null(), e.errValue("SUM of non-numeric value")
			}
			fs += f
			if v.K == KInt {
				is += v.I
			} else {
				allInt = false
			}
		}
		if allInt && name == "SUM" {
			return Int(is), nil
		}
		return Float(fs), nil
	case "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		var fs float64
		for _, v := range vals {
			f, ok := v.numeric()
			if !ok {
				return Null(), e.errValue("AVG of non-numeric value")
			}
			fs += f
		}
		return Float(fs / float64(len(vals))), nil
	case "MIN":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if Compare(v, best) < 0 {
				best = v
			}
		}
		return best, nil
	case "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if Compare(v, best) > 0 {
				best = v
			}
		}
		return best, nil
	case "GROUP_CONCAT":
		if len(vals) == 0 {
			return Null(), nil
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		return Text(strings.Join(parts, ",")), nil
	default:
		return Null(), e.errValue("unknown aggregate %s", name)
	}
}
