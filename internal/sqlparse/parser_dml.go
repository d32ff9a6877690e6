package sqlparse

import (
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqllex"
)

func (p *parser) insertStmt() (sqlast.Statement, error) {
	isReplace := p.peek().Up == "REPLACE"
	p.i++
	st := &sqlast.InsertStmt{IsReplace: isReplace}
	if !isReplace {
		// INSERT [LOW_PRIORITY] [IGNORE]
		p.accept("LOW_PRIORITY")
		st.Ignore = p.accept("IGNORE")
	}
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = tab
	if p.peek().Text == "(" && p.peekAt(1).Kind == sqllex.Ident && p.peekAt(2).Text != "(" && !isSelectStart(p.peekAt(1)) {
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		st.Cols = cols
	}
	switch {
	case p.accept("VALUES"):
		p.i-- // valuesRows expects the VALUES keyword
		rows, err := p.valuesRows()
		if err != nil {
			return nil, err
		}
		st.Rows = rows
	case p.isKw("SELECT") || p.isKw("WITH") || p.isKw("TABLE"):
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Query = q
	case p.accept("DEFAULT"):
		if err := p.expect("VALUES"); err != nil {
			return nil, err
		}
		st.Rows = [][]sqlast.Expr{{}}
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT, got %q", p.peek().Text)
	}
	if p.accept("ON") {
		if err := p.expect("CONFLICT"); err != nil {
			return nil, err
		}
		if err := p.expect("DO"); err != nil {
			return nil, err
		}
		if err := p.expect("NOTHING"); err != nil {
			return nil, err
		}
		st.OnConflictDoNothing = true
	}
	if p.accept("RETURNING") {
		exprs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		st.Returning = exprs
	}
	return st, nil
}

func isSelectStart(t sqllex.Token) bool {
	return t.Kind == sqllex.Ident && (t.Up == "SELECT" || t.Up == "WITH" || t.Up == "VALUES")
}

// valuesRows parses VALUES (expr,...),(expr,...).
func (p *parser) valuesRows() ([][]sqlast.Expr, error) {
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]sqlast.Expr
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []sqlast.Expr
		if p.peek().Text != ")" {
			exprs, err := p.exprList()
			if err != nil {
				return nil, err
			}
			row = exprs
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.acceptOp(",") {
			return rows, nil
		}
	}
}

func (p *parser) exprList() ([]sqlast.Expr, error) {
	var out []sqlast.Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptOp(",") {
			return out, nil
		}
	}
}

func (p *parser) updateStmt() (sqlast.Statement, error) {
	p.i++ // UPDATE
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	st := &sqlast.UpdateStmt{Table: tab}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, sqlast.Assignment{Col: col, Value: v})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.accept("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	ob, lim, _, err := p.orderLimit()
	if err != nil {
		return nil, err
	}
	st.OrderBy, st.Limit = ob, lim
	return st, nil
}

func (p *parser) deleteStmt() (sqlast.Statement, error) {
	p.i++ // DELETE
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &sqlast.DeleteStmt{Table: tab}
	if p.accept("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	ob, lim, _, err := p.orderLimit()
	if err != nil {
		return nil, err
	}
	st.OrderBy, st.Limit = ob, lim
	if p.accept("RETURNING") {
		exprs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		st.Returning = exprs
	}
	return st, nil
}

func (p *parser) mergeStmt() (sqlast.Statement, error) {
	p.i++ // MERGE
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	target, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("USING"); err != nil {
		return nil, err
	}
	source, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	on, err := p.expr()
	if err != nil {
		return nil, err
	}
	st := &sqlast.MergeStmt{Target: target, Source: source, On: on}
	sawArm := false
	for p.accept("WHEN") {
		sawArm = true
		if p.accept("MATCHED") {
			if err := p.expect("THEN"); err != nil {
				return nil, err
			}
			if p.accept("DELETE") {
				continue
			}
			if err := p.expect("UPDATE"); err != nil {
				return nil, err
			}
			if err := p.expect("SET"); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("="); err != nil {
					return nil, err
				}
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				st.MatchedSet = append(st.MatchedSet, sqlast.Assignment{Col: col, Value: v})
				if !p.acceptOp(",") {
					break
				}
			}
		} else {
			if err := p.expect("NOT"); err != nil {
				return nil, err
			}
			if err := p.expect("MATCHED"); err != nil {
				return nil, err
			}
			if err := p.expect("THEN"); err != nil {
				return nil, err
			}
			if err := p.expect("INSERT"); err != nil {
				return nil, err
			}
			if err := p.expect("VALUES"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			vals, err := p.exprList()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.NotMatchedVals = vals
		}
	}
	if !sawArm {
		return nil, p.errf("MERGE requires at least one WHEN arm")
	}
	return st, nil
}

func (p *parser) copyStmt() (sqlast.Statement, error) {
	p.i++ // COPY
	st := &sqlast.CopyStmt{}
	if p.acceptOp("(") {
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Query = q
	} else {
		tab, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Table = tab
	}
	switch {
	case p.accept("TO"):
		if err := p.expect("STDOUT"); err != nil {
			return nil, err
		}
	case p.accept("FROM"):
		if err := p.expect("STDIN"); err != nil {
			return nil, err
		}
		st.From = true
	default:
		return nil, p.errf("expected TO or FROM in COPY, got %q", p.peek().Text)
	}
	if p.accept("CSV") {
		st.CSV = true
		p.accept("HEADER")
	}
	return st, nil
}

func (p *parser) loadDataStmt() (sqlast.Statement, error) {
	p.i++ // LOAD
	if err := p.expect("DATA"); err != nil {
		return nil, err
	}
	if err := p.expect("INFILE"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != sqllex.String {
		return nil, p.errf("expected file string, got %q", t.Text)
	}
	p.i++
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &sqlast.LoadDataStmt{File: t.Text, Table: tab}, nil
}

func (p *parser) callStmt() (sqlast.Statement, error) {
	p.i++ // CALL
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var args []sqlast.Expr
	if p.peek().Text != ")" {
		args, err = p.exprList()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CallStmt{Name: name, Args: args}, nil
}

// --- SELECT ----------------------------------------------------------------

func (p *parser) selectStmt() (*sqlast.SelectStmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	st := &sqlast.SelectStmt{}
	if p.accept("DISTINCT") {
		st.Distinct = true
	} else {
		p.accept("ALL")
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, *item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.accept("INTO") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Into = name
	}
	if p.accept("FROM") {
		for {
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, ref)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		gs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		st.GroupBy = gs
	}
	if p.accept("HAVING") {
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	// set operations bind before ORDER BY/LIMIT in this grammar
	switch {
	case p.accept("UNION"):
		if p.accept("ALL") {
			st.Op = sqlast.SetUnionAll
		} else {
			st.Op = sqlast.SetUnion
		}
	case p.accept("EXCEPT"):
		st.Op = sqlast.SetExcept
	case p.accept("INTERSECT"):
		st.Op = sqlast.SetIntersect
	}
	if st.Op != sqlast.SetNone {
		r, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Right = r
	}
	ob, lim, off, err := p.orderLimit()
	if err != nil {
		return nil, err
	}
	st.OrderBy, st.Limit, st.Offset = ob, lim, off
	return st, nil
}

func (p *parser) selectItem() (*sqlast.SelectItem, error) {
	// bare `*`
	if p.peek().Text == "*" && p.peek().Kind == sqllex.Op {
		p.i++
		return &sqlast.SelectItem{X: &sqlast.Star{}}, nil
	}
	// t.* — lookahead: ident '.' '*'
	if p.peek().Kind == sqllex.Ident && p.peekAt(1).Text == "." && p.peekAt(2).Text == "*" {
		tab, _ := p.ident()
		p.i += 2
		return &sqlast.SelectItem{X: &sqlast.Star{Table: tab}}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	item := &sqlast.SelectItem{X: e}
	if _, star := e.(*sqlast.Star); star {
		return item, nil // `(*)` renders as `*`, which takes no alias
	}
	if p.accept("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		item.Alias = a
	} else if p.peek().Kind == sqllex.Ident && !reservedAfterItem[p.peek().Up] {
		a, _ := p.ident()
		item.Alias = a
	}
	return item, nil
}

// reservedAfterItem lists keywords that end the projection list; a bare
// identifier after an expression is otherwise an implicit alias.
var reservedAfterItem = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "INTO": true, "AS": true, "ON": true, "USING": true,
	"JOIN": true, "LEFT": true, "RIGHT": true, "INNER": true, "CROSS": true,
	"RETURNING": true, "DESC": true, "ASC": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "AND": true, "OR": true, "NOT": true,
	"CSV": true, "TO": true, "STDOUT": true, "VALUES": true, "SET": true,
	"FOR": true, "DO": true, "WITH": true,
}

func (p *parser) tableRef() (sqlast.TableRef, error) {
	left, err := p.simpleTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var kind sqlast.JoinKind
		switch {
		case p.accept("JOIN"), p.accept("INNER"):
			if p.toks[p.i-1].Up == "INNER" {
				if err := p.expect("JOIN"); err != nil {
					return nil, err
				}
			}
			kind = sqlast.JoinInner
		case p.accept("LEFT"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinLeft
		case p.accept("RIGHT"):
			p.accept("OUTER")
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinRight
		case p.accept("CROSS"):
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinCross
		default:
			return left, nil
		}
		right, err := p.simpleTableRef()
		if err != nil {
			return nil, err
		}
		j := &sqlast.JoinRef{Kind: kind, L: left, R: right}
		if kind != sqlast.JoinCross {
			if err := p.expect("ON"); err != nil {
				return nil, err
			}
			on, err := p.expr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *parser) simpleTableRef() (sqlast.TableRef, error) {
	if p.acceptOp("(") {
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.accept("AS")
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.SubqueryRef{Query: q, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ref := &sqlast.BaseTable{Name: name}
	if p.accept("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.peek().Kind == sqllex.Ident && !reservedAfterItem[p.peek().Up] {
		a, _ := p.ident()
		ref.Alias = a
	}
	return ref, nil
}

func (p *parser) orderLimit() ([]sqlast.OrderItem, sqlast.Expr, sqlast.Expr, error) {
	var order []sqlast.OrderItem
	var limit, offset sqlast.Expr
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, nil, nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, nil, nil, err
			}
			item := sqlast.OrderItem{X: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			order = append(order, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		e, err := p.expr()
		if err != nil {
			return nil, nil, nil, err
		}
		limit = e
	}
	if p.accept("OFFSET") {
		e, err := p.expr()
		if err != nil {
			return nil, nil, nil, err
		}
		offset = e
	}
	return order, limit, offset, nil
}

func (p *parser) withStmt() (sqlast.Statement, error) {
	p.i++ // WITH
	var ctes []sqlast.CTE
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var cols []string
		if p.peek().Text == "(" && p.peekAt(1).Kind == sqllex.Ident && !isSelectStart(p.peekAt(1)) &&
			!isDMLStart(p.peekAt(1)) {
			cols, err = p.parenIdentList()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ctes = append(ctes, sqlast.CTE{Name: name, Cols: cols, Body: body})
		if !p.acceptOp(",") {
			break
		}
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &sqlast.WithStmt{CTEs: ctes, Body: body}, nil
}

func isDMLStart(t sqllex.Token) bool {
	if t.Kind != sqllex.Ident {
		return false
	}
	switch t.Up {
	case "INSERT", "UPDATE", "DELETE", "MERGE", "REPLACE":
		return true
	}
	return false
}
