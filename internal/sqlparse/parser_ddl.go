package sqlparse

import (
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqllex"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func (p *parser) createStmt() (sqlast.Statement, error) {
	p.i++ // CREATE
	orReplace := false
	if p.accept("OR") {
		if err := p.expect("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	temp := p.accept("TEMPORARY") || p.accept("TEMP")
	unique := p.accept("UNIQUE")

	switch {
	case p.accept("TABLE"):
		return p.createTable(temp)
	case p.accept("MATERIALIZED"):
		if err := p.expect("VIEW"); err != nil {
			return nil, err
		}
		return p.createView(orReplace, true)
	case p.accept("VIEW"):
		return p.createView(orReplace, false)
	case p.accept("INDEX"):
		return p.createIndex(unique)
	case p.accept("TRIGGER"):
		return p.createTrigger()
	case p.accept("SEQUENCE"):
		return p.createSequence()
	case p.accept("SCHEMA"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.CreateSchemaStmt{Name: name}, nil
	case p.accept("FUNCTION"):
		return p.createFunction()
	case p.accept("PROCEDURE"):
		return p.createProcedure()
	case p.accept("RULE"):
		return p.createRule(orReplace)
	case p.accept("DOMAIN"):
		return p.createDomain()
	case p.accept("TYPE"):
		return p.createType()
	case p.accept("EXTENSION"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.CreateExtensionStmt{Name: name}, nil
	case p.accept("ROLE"), p.accept("USER"):
		isUser := p.toks[p.i-1].Up == "USER"
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		opt := ""
		if p.accept("WITH") {
			o, err := p.ident()
			if err != nil {
				return nil, err
			}
			opt = strings.ToUpper(o)
		}
		return &sqlast.CreateRoleStmt{Name: name, IsUser: isUser, Option: opt}, nil
	case p.accept("DATABASE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.CreateDatabaseStmt{Name: name}, nil
	default:
		return nil, p.errf("unsupported CREATE object %q", p.peek().Text)
	}
}

func (p *parser) createTable(temp bool) (sqlast.Statement, error) {
	ifNot := false
	if p.accept("IF") {
		if err := p.expect("NOT"); err != nil {
			return nil, err
		}
		if err := p.expect("EXISTS"); err != nil {
			return nil, err
		}
		ifNot = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &sqlast.CreateTableStmt{Name: name, Temp: temp, IfNotExists: ifNot}
	for {
		if p.isKw("PRIMARY") || p.isKw("UNIQUE") && p.peekAt(1).Text == "(" ||
			p.isKw("CHECK") || p.isKw("FOREIGN") {
			tc, err := p.tableConstraint()
			if err != nil {
				return nil, err
			}
			st.Constraints = append(st.Constraints, *tc)
		} else {
			cd, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, *cd)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) tableConstraint() (*sqlast.TableConstraint, error) {
	switch {
	case p.accept("PRIMARY"):
		if err := p.expect("KEY"); err != nil {
			return nil, err
		}
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		return &sqlast.TableConstraint{Kind: "PRIMARY KEY", Columns: cols}, nil
	case p.accept("UNIQUE"):
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		return &sqlast.TableConstraint{Kind: "UNIQUE", Columns: cols}, nil
	case p.accept("CHECK"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.TableConstraint{Kind: "CHECK", Check: e}, nil
	case p.accept("FOREIGN"):
		if err := p.expect("KEY"); err != nil {
			return nil, err
		}
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		if err := p.expect("REFERENCES"); err != nil {
			return nil, err
		}
		tab, err := p.ident()
		if err != nil {
			return nil, err
		}
		var refCols []string
		if p.peek().Text == "(" {
			refCols, err = p.parenIdentList()
			if err != nil {
				return nil, err
			}
		}
		return &sqlast.TableConstraint{Kind: "FOREIGN KEY", Columns: cols, RefTab: tab, RefCols: refCols}, nil
	default:
		return nil, p.errf("bad table constraint near %q", p.peek().Text)
	}
}

// typeName parses a column type like INT, VARCHAR(100), DOUBLE PRECISION.
func (p *parser) typeName() (string, error) {
	base, err := p.ident()
	if err != nil {
		return "", err
	}
	name := strings.ToUpper(base)
	// two-word types
	if name == "DOUBLE" && p.accept("PRECISION") {
		name = "DOUBLE PRECISION"
	}
	if p.acceptOp("(") {
		n, err := p.intLit()
		if err != nil {
			return "", err
		}
		name += "(" + itoa(n) + ")"
		if p.acceptOp(",") {
			m, err := p.intLit()
			if err != nil {
				return "", err
			}
			name = name[:len(name)-1] + "," + itoa(m) + ")"
		}
		if err := p.expectOp(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	var b [24]byte
	i := len(b)
	u := n
	if neg {
		u = -u
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func (p *parser) columnDef() (*sqlast.ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tn, err := p.typeName()
	if err != nil {
		return nil, err
	}
	cd := &sqlast.ColumnDef{Name: name, TypeName: tn}
	for {
		switch {
		case p.accept("PRIMARY"):
			if err := p.expect("KEY"); err != nil {
				return nil, err
			}
			cd.PrimaryKey = true
		case p.accept("UNIQUE"):
			cd.Unique = true
		case p.accept("NOT"):
			if err := p.expect("NULL"); err != nil {
				return nil, err
			}
			cd.NotNull = true
		case p.accept("NULL"):
			// explicit nullable; no-op
		case p.accept("DEFAULT"):
			e, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			cd.Default = e
		case p.accept("CHECK"):
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			cd.Check = e
		case p.accept("REFERENCES"):
			tab, err := p.ident()
			if err != nil {
				return nil, err
			}
			ref := &sqlast.FKRef{Table: tab}
			if p.acceptOp("(") {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				ref.Column = col
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			cd.References = ref
		default:
			return cd, nil
		}
	}
}

func (p *parser) createView(orReplace, materialized bool) (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.peek().Text == "(" {
		cols, err = p.parenIdentList()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	q, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateViewStmt{Name: name, OrReplace: orReplace, Materialized: materialized, Cols: cols, Query: q}, nil
}

func (p *parser) createIndex(unique bool) (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.parenIdentList()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateIndexStmt{Name: name, Unique: unique, Table: tab, Cols: cols}, nil
}

func (p *parser) createTrigger() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tt := sqlast.TriggerAfter
	if p.accept("BEFORE") {
		tt = sqlast.TriggerBefore
	} else if err := p.expect("AFTER"); err != nil {
		return nil, err
	}
	ev, err := p.triggerEvent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("FOR"); err != nil {
		return nil, err
	}
	if err := p.expect("EACH"); err != nil {
		return nil, err
	}
	if err := p.expect("ROW"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateTriggerStmt{Name: name, Time: tt, Event: ev, Table: tab, Body: body}, nil
}

func (p *parser) triggerEvent() (sqlast.TriggerEvent, error) {
	switch {
	case p.accept("INSERT"):
		return sqlast.TriggerInsert, nil
	case p.accept("UPDATE"):
		return sqlast.TriggerUpdate, nil
	case p.accept("DELETE"):
		return sqlast.TriggerDelete, nil
	default:
		return 0, p.errf("expected trigger event, got %q", p.peek().Text)
	}
}

func (p *parser) createSequence() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &sqlast.CreateSequenceStmt{Name: name}
	for {
		switch {
		case p.accept("START"):
			p.accept("WITH")
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			st.Start = n
		case p.accept("INCREMENT"):
			p.accept("BY")
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			st.Inc = n
		default:
			return st, nil
		}
	}
}

func (p *parser) createFunction() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	if p.peek().Text != ")" {
		params, err = p.identList()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expect("RETURNS"); err != nil {
		return nil, err
	}
	ret, err := p.typeName()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateFunctionStmt{Name: name, Params: params, Returns: ret, Body: body}, nil
}

func (p *parser) createProcedure() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateProcedureStmt{Name: name, Body: body}, nil
}

func (p *parser) createRule(orReplace bool) (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	ev, err := p.triggerEvent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("TO"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("DO"); err != nil {
		return nil, err
	}
	instead := p.accept("INSTEAD")
	if p.accept("NOTHING") {
		return &sqlast.CreateRuleStmt{Name: name, OrReplace: orReplace, Event: ev, Table: tab, Instead: instead}, nil
	}
	action, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateRuleStmt{Name: name, OrReplace: orReplace, Event: ev, Table: tab, Instead: instead, Action: action}, nil
}

func (p *parser) createDomain() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	base, err := p.typeName()
	if err != nil {
		return nil, err
	}
	st := &sqlast.CreateDomainStmt{Name: name, Base: base}
	if p.accept("CHECK") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Check = e
	}
	return st, nil
}

func (p *parser) createType() (sqlast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	if err := p.expect("ENUM"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var vals []string
	for {
		t := p.peek()
		if t.Kind != sqllex.String {
			return nil, p.errf("expected enum string value, got %q", t.Text)
		}
		p.i++
		vals = append(vals, t.Text)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.CreateTypeStmt{Name: name, Values: vals}, nil
}

func (p *parser) alterStmt() (sqlast.Statement, error) {
	p.i++ // ALTER
	switch {
	case p.accept("TABLE"):
		return p.alterTable()
	case p.accept("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("RENAME"); err != nil {
			return nil, err
		}
		if err := p.expect("TO"); err != nil {
			return nil, err
		}
		nn, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSimpleStmt{What: sqlt.AlterView, Name: name, NewName: nn}, nil
	case p.accept("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("RENAME"); err != nil {
			return nil, err
		}
		if err := p.expect("TO"); err != nil {
			return nil, err
		}
		nn, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSimpleStmt{What: sqlt.AlterIndex, Name: name, NewName: nn}, nil
	case p.accept("SEQUENCE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("RESTART"); err != nil {
			return nil, err
		}
		p.accept("WITH")
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSimpleStmt{What: sqlt.AlterSequence, Name: name, Restart: n}, nil
	case p.accept("ROLE"), p.accept("USER"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("WITH"); err != nil {
			return nil, err
		}
		opt, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSimpleStmt{What: sqlt.AlterRole, Name: name, Option: strings.ToUpper(opt)}, nil
	case p.accept("DATABASE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("SET"); err != nil {
			return nil, err
		}
		opt, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSimpleStmt{What: sqlt.AlterDatabase, Name: name, Option: strings.ToUpper(opt)}, nil
	case p.accept("SYSTEM"):
		if err := p.expect("SET"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		v, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &sqlast.AlterSystemStmt{Setting: name, Value: v}, nil
	default:
		return nil, p.errf("unsupported ALTER object %q", p.peek().Text)
	}
}

func (p *parser) alterTable() (sqlast.Statement, error) {
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &sqlast.AlterTableStmt{Table: tab}
	switch {
	case p.accept("ADD"):
		p.accept("COLUMN")
		cd, err := p.columnDef()
		if err != nil {
			return nil, err
		}
		st.Action = sqlast.AlterAddColumn
		st.Col = *cd
	case p.accept("DROP"):
		p.accept("COLUMN")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Action = sqlast.AlterDropColumn
		st.OldName = name
	case p.accept("RENAME"):
		if p.accept("COLUMN") {
			old, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("TO"); err != nil {
				return nil, err
			}
			nn, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Action = sqlast.AlterRenameColumn
			st.OldName, st.NewName = old, nn
		} else {
			if err := p.expect("TO"); err != nil {
				return nil, err
			}
			nn, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Action = sqlast.AlterRenameTable
			st.NewName = nn
		}
	case p.accept("ALTER"):
		p.accept("COLUMN")
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch {
		case p.accept("TYPE"):
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			st.Action = sqlast.AlterColumnType
			st.Col = sqlast.ColumnDef{Name: col, TypeName: tn}
		case p.accept("SET"):
			if err := p.expect("DEFAULT"); err != nil {
				return nil, err
			}
			e, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			st.Action = sqlast.AlterColumnDefault
			st.Col = sqlast.ColumnDef{Name: col, Default: e}
		case p.accept("DROP"):
			if err := p.expect("DEFAULT"); err != nil {
				return nil, err
			}
			st.Action = sqlast.AlterColumnDefault
			st.Col = sqlast.ColumnDef{Name: col}
		default:
			return nil, p.errf("unsupported ALTER COLUMN action %q", p.peek().Text)
		}
	default:
		return nil, p.errf("unsupported ALTER TABLE action %q", p.peek().Text)
	}
	return st, nil
}

var dropObjects = map[string]sqlt.Type{
	"TABLE":     sqlt.DropTable,
	"VIEW":      sqlt.DropView,
	"INDEX":     sqlt.DropIndex,
	"TRIGGER":   sqlt.DropTrigger,
	"SEQUENCE":  sqlt.DropSequence,
	"SCHEMA":    sqlt.DropSchema,
	"FUNCTION":  sqlt.DropFunction,
	"PROCEDURE": sqlt.DropProcedure,
	"RULE":      sqlt.DropRule,
	"DOMAIN":    sqlt.DropDomain,
	"TYPE":      sqlt.DropType,
	"EXTENSION": sqlt.DropExtension,
	"ROLE":      sqlt.DropRole,
	"USER":      sqlt.DropUser,
	"DATABASE":  sqlt.DropDatabase,
}

func (p *parser) dropStmt() (sqlast.Statement, error) {
	p.i++ // DROP
	var what sqlt.Type
	if p.accept("MATERIALIZED") {
		if err := p.expect("VIEW"); err != nil {
			return nil, err
		}
		what = sqlt.DropMaterializedView
	} else {
		t := p.peek()
		w, ok := dropObjects[t.Up]
		if !ok {
			return nil, p.errf("unsupported DROP object %q", t.Text)
		}
		p.i++
		what = w
	}
	st := &sqlast.DropStmt{What: what}
	if p.accept("IF") {
		if err := p.expect("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if what == sqlt.DropTrigger || what == sqlt.DropRule {
		if p.accept("ON") {
			tab, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.OnTable = tab
		}
	}
	if p.accept("CASCADE") {
		st.Cascade = true
	}
	return st, nil
}

func (p *parser) renameTableStmt() (sqlast.Statement, error) {
	p.i++ // RENAME
	if err := p.expect("TABLE"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("TO"); err != nil {
		return nil, err
	}
	to, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &sqlast.RenameTableStmt{From: from, To: to}, nil
}

func (p *parser) commentOnStmt() (sqlast.Statement, error) {
	p.i++ // COMMENT
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// COLUMN comments use table.column form.
	if p.acceptOp(".") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		name += "." + col
	}
	if err := p.expect("IS"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != sqllex.String {
		return nil, p.errf("expected comment string, got %q", t.Text)
	}
	p.i++
	return &sqlast.CommentOnStmt{ObjectKind: strings.ToUpper(kind), Name: name, Comment: t.Text}, nil
}

func (p *parser) grantStmt() (sqlast.Statement, error) {
	revoke := p.peek().Up == "REVOKE"
	p.i++
	var privs []string
	for {
		t := p.peek()
		if t.Kind != sqllex.Ident {
			return nil, p.errf("expected privilege name, got %q", t.Text)
		}
		p.i++
		privs = append(privs, t.Up)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	tab, err := p.ident()
	if err != nil {
		return nil, err
	}
	link := "TO"
	if revoke {
		link = "FROM"
	}
	if err := p.expect(link); err != nil {
		return nil, err
	}
	role, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &sqlast.GrantStmt{Revoke: revoke, Privs: privs, Table: tab, Role: role}, nil
}

func (p *parser) setStmt() (sqlast.Statement, error) {
	p.i++ // SET
	switch {
	case p.accept("ROLE"):
		role, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.SetRoleStmt{Role: role}, nil
	case p.accept("TRANSACTION"):
		if err := p.expect("ISOLATION"); err != nil {
			return nil, err
		}
		if err := p.expect("LEVEL"); err != nil {
			return nil, err
		}
		var words []string
		for p.peek().Kind == sqllex.Ident {
			w, _ := p.ident()
			words = append(words, strings.ToUpper(w))
		}
		if len(words) == 0 {
			return nil, p.errf("expected isolation level")
		}
		return &sqlast.SetTransactionStmt{Mode: strings.Join(words, " ")}, nil
	default:
		global := false
		switch {
		case p.accept("GLOBAL"):
			global = true
		case p.accept("SESSION"):
		case p.accept("LOCAL"):
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		// MySQL @@SESSION.varname form: the lexer folds @@SESSION into one
		// ident; strip the sigil and consume the dotted tail.
		if strings.HasPrefix(name, "@@") {
			scope := strings.ToUpper(strings.TrimPrefix(name, "@@"))
			if scope == "GLOBAL" {
				global = true
			}
			if p.acceptOp(".") {
				name, err = p.ident()
				if err != nil {
					return nil, err
				}
			} else {
				name = strings.TrimPrefix(name, "@@")
			}
			// The name renders bare after the scope keyword, so it must be
			// a plain name without the sigil to parse back to itself.
			if !sqllex.PlainIdent(name) || strings.HasPrefix(name, "@@") {
				return nil, p.errf("bad variable name %q", name)
			}
		}
		var val sqlast.Expr
		if p.acceptOp("=") || p.accept("TO") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			val = v
		} else {
			return nil, p.errf("expected '=' in SET, got %q", p.peek().Text)
		}
		return &sqlast.SetVarStmt{Global: global, Name: name, Value: val}, nil
	}
}
