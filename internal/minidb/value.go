// Package minidb implements the in-memory relational DBMS that serves as the
// fuzzing target, standing in for the PostgreSQL/MySQL/MariaDB/Comdb2
// binaries of the paper's evaluation (see DESIGN.md §2 for the substitution
// argument). The engine is deliberately rich in statement-order-sensitive
// state — catalogs, rows, triggers, rewrite rules, cursors, prepared
// statements, transactions, privileges — so that SQL Type Sequences
// genuinely determine which branches execute (the property of paper Fig. 2).
package minidb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind tags runtime values.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KText
	KBool
)

// Value is one SQL runtime value.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Constructors.
func Null() Value           { return Value{K: KNull} }
func Int(v int64) Value     { return Value{K: KInt, I: v} }
func Float(v float64) Value { return Value{K: KFloat, F: v} }
func Text(s string) Value   { return Value{K: KText, S: s} }
func Bool(b bool) Value     { return Value{K: KBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// String renders the value for result sets and COPY output.
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KText:
		return v.S
	case KBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// numeric returns the value as float64 with a flag for whether it is
// numeric-coercible.
func (v Value) numeric() (float64, bool) {
	switch v.K {
	case KInt:
		return float64(v.I), true
	case KFloat:
		return v.F, true
	case KBool:
		if v.B {
			return 1, true
		}
		return 0, true
	case KText:
		// checking the first byte spares the error value of most text
		// ParseFloat would reject
		s := strings.TrimSpace(v.S)
		if !mayBeFloat(s) {
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// mayBeFloat reports whether s can have ParseFloat's syntax by its first
// byte: a sign, a digit, a point, or the start of "inf", "infinity" or
// "nan" in any case. A false answer means ParseFloat rejects s.
func mayBeFloat(s string) bool {
	if s == "" {
		return false
	}
	switch s[0] {
	case '+', '-', '.', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'i', 'I', 'n', 'N':
		return true
	}
	return false
}

// Truthy evaluates the value in boolean context; NULL is not truthy.
func (v Value) Truthy() bool {
	switch v.K {
	case KBool:
		return v.B
	case KInt:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KText:
		return v.S != ""
	default:
		return false
	}
}

// kindRank orders kinds for cross-kind comparison: NULL < numbers/bools <
// text. The total order makes ORDER BY and DISTINCT deterministic.
func kindRank(k Kind) int {
	switch k {
	case KNull:
		return 0
	case KInt, KFloat, KBool:
		return 1
	default:
		return 2
	}
}

// Compare imposes a total order over values: -1, 0, or +1. NULLs compare
// lowest (useful for sorting); SQL three-valued NULL semantics are handled by
// the evaluator before comparison.
func Compare(a, b Value) int {
	ra, rb := kindRank(a.K), kindRank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		fa, _ := a.numeric()
		fb, _ := b.numeric()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(a.S, b.S)
	}
}

// Equal reports SQL equality after coercion (NULL never equals anything; the
// evaluator handles the NULL case before calling Equal).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a string usable as a uniqueness key for index lookups and
// DISTINCT/GROUP BY hashing.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v's Key to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.K {
	case KNull:
		return append(b, "\x00N"...)
	case KInt:
		return strconv.AppendInt(append(b, 1), v.I, 10)
	case KFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// integral floats collide with ints, as SQL equality does
			return strconv.AppendInt(append(b, 1), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(b, 2), v.F, 'g', -1, 64)
	case KText:
		return append(append(b, 3), v.S...)
	case KBool:
		if v.B {
			return append(b, "\x011"...)
		}
		return append(b, "\x010"...)
	default:
		return append(b, 4)
	}
}

// RowKey concatenates value keys for multi-column uniqueness.
func RowKey(vals []Value) string { return string(appendRowKey(nil, vals)) }

// appendRowKey appends vals' RowKey to b.
func appendRowKey(b []byte, vals []Value) []byte {
	for _, v := range vals {
		b = append(v.appendKey(b), 0x1f)
	}
	return b
}

// CoerceToColumn converts v to the storage representation of a column type
// whose affinity is k (affinity's result for the type name, which a column
// resolves once, in Column.Kind), applying SQLite-style type affinity: INT
// columns store integral values, FLOAT columns store doubles, TEXT columns
// store strings, BOOLEAN columns store bools. Unconvertible values are
// stored as-is (dynamic typing), which mirrors the forgiving behaviour
// fuzzers exploit.
func CoerceToColumn(k Kind, v Value) Value {
	if v.IsNull() {
		return v
	}
	switch k {
	case KInt:
		switch v.K {
		case KInt:
			return v
		case KFloat:
			if v.F == math.Trunc(v.F) {
				return Int(int64(v.F))
			}
			return v
		case KBool:
			if v.B {
				return Int(1)
			}
			return Int(0)
		case KText:
			// checking the syntax first spares the error value of every
			// failed parse; only an out-of-range integer still fails it
			if s := strings.TrimSpace(v.S); isInteger(s) {
				if n, err := strconv.ParseInt(s, 10, 64); err == nil {
					return Int(n)
				}
			}
			return v
		}
	case KFloat:
		if f, ok := v.numeric(); ok {
			return Float(f)
		}
	case KText:
		return Text(v.String())
	case KBool:
		return Bool(v.Truthy())
	}
	return v
}

// isInteger reports whether s has ParseInt's base-10 syntax: an optional
// sign and one or more digits.
func isInteger(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// affinity maps a SQL type name to a storage kind.
func affinity(typeName string) Kind {
	t := strings.ToUpper(typeName)
	switch {
	case strings.Contains(t, "INT") || strings.Contains(t, "YEAR") || strings.Contains(t, "SERIAL"):
		return KInt
	case strings.Contains(t, "FLOAT") || strings.Contains(t, "DOUBLE") ||
		strings.Contains(t, "REAL") || strings.Contains(t, "DECIMAL") ||
		strings.Contains(t, "NUMERIC"):
		return KFloat
	case strings.Contains(t, "BOOL"):
		return KBool
	default:
		return KText
	}
}

// errValue builds a typed execution error whose arguments are strings, and
// errValueArgs one with integer or wrapped-error arguments (argInt,
// argErr). The message is formatted on the first Error() call, since the
// fuzzer itself never reads it: the error keeps the format and its
// arguments in typed slots, so building it boxes nothing. Strings,
// integers and execution errors read the same whenever they are
// formatted; a caller formats anything else (a value, a type name) into a
// string first, and an error of another type is formatted here.
//
// Inside RunTestCase the error comes from an engine slab that the next
// RunTestCase reuses, the lifetime Outcome.Errs documents; outside it (the
// REPL, lego.DB) it is allocated and lives as long as it is referenced.
func (e *Engine) errValue(format string, args ...string) error {
	x := e.newError(format)
	if len(args) > len(x.args) {
		a := make([]any, len(args))
		for i, s := range args {
			a[i] = s
		}
		return x.formatNow(a)
	}
	for i, s := range args {
		x.args[i] = errArg{kind: slotStr, s: s}
	}
	x.nargs = len(args)
	return x
}

func (e *Engine) errValueArgs(format string, args ...errArg) error {
	x := e.newError(format)
	if len(args) > len(x.args) {
		return x.formatNow(boxArgs(args))
	}
	for _, a := range args {
		if _, ok := a.cause.(*ExecError); a.kind == slotErr && !ok {
			return x.formatNow(boxArgs(args))
		}
	}
	x.nargs = copy(x.args[:], args)
	return x
}

// newError returns an ExecError holding only format: from the engine's
// error slab inside RunTestCase, else from the heap.
func (e *Engine) newError(format string) *ExecError {
	if !e.pool.on {
		return &ExecError{format: format}
	}
	x := e.errs.take()
	*x = ExecError{format: format}
	return x
}

// argKind tags the typed slot an errArg fills.
type argKind uint8

const (
	slotStr argKind = iota
	slotInt
	slotErr
)

// errArg is one argument of an ExecError's message.
type errArg struct {
	kind  argKind
	s     string
	n     int
	cause error
}

// argInt and argErr wrap errValueArgs' integer and wrapped-error
// arguments; argS its string ones.
func argS(s string) errArg    { return errArg{kind: slotStr, s: s} }
func argInt(n int) errArg     { return errArg{kind: slotInt, n: n} }
func argErr(err error) errArg { return errArg{kind: slotErr, cause: err} }

func (a errArg) value() any {
	switch a.kind {
	case slotInt:
		return a.n
	case slotErr:
		return a.cause
	default:
		return a.s
	}
}

// typeName formats x's dynamic type as %T does, for messages about
// unsupported nodes.
func typeName(x any) string { return fmt.Sprintf("%T", x) }

func boxArgs(args []errArg) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a.value()
	}
	return out
}

// ExecError is a recoverable SQL execution error (semantic errors, constraint
// violations). It corresponds to the server returning an error to the
// client; fuzzing continues with the next statement. One returned inside
// RunTestCase is engine-owned and valid until the next RunTestCase on the
// same engine (see errValue).
type ExecError struct {
	format string // "" once msg holds the formatted message
	args   [3]errArg
	nargs  int
	msg    string
}

func (e *ExecError) formatNow(args []any) *ExecError {
	e.msg, e.format = fmt.Sprintf(e.format, args...), ""
	return e
}

// Error implements error. It caches the message, so an ExecError is read
// only by the goroutine that runs its engine, as every engine result is.
func (e *ExecError) Error() string {
	if e.format != "" {
		var boxed [3]any
		for i, a := range e.args[:e.nargs] {
			boxed[i] = a.value()
		}
		e.formatNow(boxed[:e.nargs])
		e.args = [3]errArg{}
	}
	return e.msg
}
