package sqlparse

import (
	"strconv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqllex"
)

// expr parses a full expression: OR-level precedence and below.
func (p *parser) expr() (sqlast.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) andExpr() (sqlast.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) notExpr() (sqlast.Expr, error) {
	if p.accept("NOT") {
		// NOT EXISTS folds into the ExistsExpr node.
		if p.isKw("EXISTS") {
			e, err := p.cmpExpr()
			if err != nil {
				return nil, err
			}
			if ex, ok := e.(*sqlast.ExistsExpr); ok {
				ex.Not = !ex.Not
				return ex, nil
			}
			return &sqlast.Unary{Op: "NOT", X: e}, nil
		}
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) cmpExpr() (sqlast.Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.Kind == sqllex.Op && cmpOps[t.Text]:
			p.i++
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			left = &sqlast.Binary{Op: op, L: left, R: right}
		case p.isKw("IS"):
			p.i++
			not := p.accept("NOT")
			if err := p.expect("NULL"); err != nil {
				return nil, err
			}
			left = &sqlast.IsNullExpr{X: left, Not: not}
		case p.isKw("LIKE"):
			p.i++
			pat, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			left = &sqlast.LikeExpr{X: left, Pattern: pat}
		case p.isKw("BETWEEN"):
			p.i++
			lo, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AND"); err != nil {
				return nil, err
			}
			hi, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			left = &sqlast.BetweenExpr{X: left, Lo: lo, Hi: hi}
		case p.isKw("IN"):
			p.i++
			in := &sqlast.InExpr{X: left}
			if err := p.fillIn(in); err != nil {
				return nil, err
			}
			left = in
		case p.isKw("NOT"):
			// x NOT LIKE / NOT IN / NOT BETWEEN
			save := p.i
			p.i++
			switch {
			case p.accept("LIKE"):
				pat, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				left = &sqlast.LikeExpr{X: left, Not: true, Pattern: pat}
			case p.accept("BETWEEN"):
				lo, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expect("AND"); err != nil {
					return nil, err
				}
				hi, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				left = &sqlast.BetweenExpr{X: left, Not: true, Lo: lo, Hi: hi}
			case p.accept("IN"):
				in := &sqlast.InExpr{X: left, Not: true}
				if err := p.fillIn(in); err != nil {
					return nil, err
				}
				left = in
			default:
				p.i = save
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *parser) fillIn(in *sqlast.InExpr) error {
	if err := p.expectOp("("); err != nil {
		return err
	}
	if p.isKw("SELECT") {
		q, err := p.selectStmt()
		if err != nil {
			return err
		}
		in.Query = q
	} else {
		list, err := p.exprList()
		if err != nil {
			return err
		}
		in.List = list
	}
	return p.expectOp(")")
}

func (p *parser) addExpr() (sqlast.Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != sqllex.Op || (t.Text != "+" && t.Text != "-" && t.Text != "||") {
			return left, nil
		}
		p.i++
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: t.Text, L: left, R: right}
	}
}

func (p *parser) mulExpr() (sqlast.Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != sqllex.Op || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.i++
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: t.Text, L: left, R: right}
	}
}

// unaryExpr parses -x, +x, and primaries. Exported within the package for
// DEFAULT clauses, which only allow simple expressions.
func (p *parser) unaryExpr() (sqlast.Expr, error) {
	t := p.peek()
	if t.Kind == sqllex.Op && (t.Text == "-" || t.Text == "+") {
		p.i++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		// fold signed numeric literals
		if lit, ok := x.(*sqlast.Literal); ok && t.Text == "-" {
			switch lit.Kind {
			case sqlast.LitInt:
				lit.Int = -lit.Int
				return lit, nil
			case sqlast.LitFloat:
				lit.Float = -lit.Float
				return lit, nil
			}
		}
		if t.Text == "+" {
			return x, nil
		}
		return &sqlast.Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sqllex.Number:
		p.i++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return sqlast.FloatLit(f), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return sqlast.FloatLit(f), nil
		}
		return sqlast.IntLit(n), nil

	case sqllex.String:
		p.i++
		return sqlast.StringLit(t.Text), nil

	case sqllex.Op:
		if t.Text == "(" {
			p.i++
			if p.isKw("SELECT") {
				q, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.Subquery{Query: q}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			p.i++
			return &sqlast.Star{}, nil
		}
		return nil, p.errf("unexpected token %q in expression", t.Text)

	case sqllex.Ident:
		switch t.Up {
		case "NULL":
			p.i++
			return sqlast.NullLit(), nil
		case "TRUE":
			p.i++
			return sqlast.BoolLit(true), nil
		case "FALSE":
			p.i++
			return sqlast.BoolLit(false), nil
		case "CASE":
			return p.caseExpr()
		case "CAST":
			p.i++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.CastExpr{X: x, TypeName: tn}, nil
		case "EXISTS":
			p.i++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.ExistsExpr{Query: q}, nil
		}
		// identifier: column ref, qualified ref, or function call. A query
		// keyword is none of these: after "(" it would reparse as a
		// subquery.
		if isSelectStart(t) {
			return nil, p.errf("unexpected %q in expression", t.Text)
		}
		p.i++
		name := t.Text
		if p.peek().Text == "(" && p.peek().Kind == sqllex.Op {
			return p.funcCall(name)
		}
		if p.acceptOp(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &sqlast.ColRef{Table: name, Name: col}, nil
		}
		return &sqlast.ColRef{Name: name}, nil

	default:
		return nil, p.errf("unexpected end of expression")
	}
}

func (p *parser) funcCall(name string) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &sqlast.FuncCall{Name: strings.ToUpper(name)}
	switch {
	case p.acceptOp("*"):
		fc.Star = true
	case p.peek().Text == ")":
		// no args
	default:
		fc.Distinct = p.accept("DISTINCT")
		args, err := p.exprList()
		if err != nil {
			return nil, err
		}
		fc.Args = args
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.accept("OVER") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		w := &sqlast.WindowSpec{}
		if p.accept("PARTITION") {
			if err := p.expect("BY"); err != nil {
				return nil, err
			}
			es, err := p.exprList()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = es
		}
		if p.accept("ORDER") {
			if err := p.expect("BY"); err != nil {
				return nil, err
			}
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				it := sqlast.OrderItem{X: e}
				if p.accept("DESC") {
					it.Desc = true
				} else {
					p.accept("ASC")
				}
				w.OrderBy = append(w.OrderBy, it)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fc.Over = w
	}
	return fc, nil
}

func (p *parser) caseExpr() (sqlast.Expr, error) {
	p.i++ // CASE
	ce := &sqlast.CaseExpr{}
	if !p.isKw("WHEN") {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.accept("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		res, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, sqlast.CaseWhen{Cond: cond, Result: res})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.accept("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
