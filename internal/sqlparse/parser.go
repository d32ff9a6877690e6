// Package sqlparse implements a recursive-descent parser producing the
// sqlast representation. It plays the role of the Bison/Flex AST parsers in
// the paper's implementation (§IV): identifying statement types for
// type-affinity analysis (Algorithm 2, line 3) and extracting AST structures
// for the instantiation library.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqllex"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Error is a parse error with token-position context.
type Error struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("parse error at %d: %s", e.Pos, e.Msg) }

type parser struct {
	toks []sqllex.Token
	i    int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (sqlast.Statement, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.peek().Text)
	}
	return s, nil
}

// tokenize lexes sql for the parser. The renderer writes names unquoted, so
// a quoted identifier is accepted only when it is a plain name: then it
// lexes to the same token unquoted, and every parsed script renders to SQL
// that parses back to it.
func tokenize(sql string) ([]sqllex.Token, error) {
	toks, err := sqllex.Tokenize(sql)
	if err != nil {
		return nil, err
	}
	for _, t := range toks {
		if t.Kind == sqllex.Ident && !sqllex.PlainIdent(t.Text) {
			return nil, &Error{Pos: t.Pos, Msg: fmt.Sprintf("identifier %q is not a plain name", t.Text)}
		}
	}
	return toks, nil
}

// ParseScript parses a semicolon-separated script into a test case.
func ParseScript(sql string) (sqlast.TestCase, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var tc sqlast.TestCase
	for !p.atEOF() {
		if p.acceptOp(";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		tc = append(tc, s)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, got %q", p.peek().Text)
		}
	}
	return tc, nil
}

// TypeOf parses just far enough to classify the statement type of sql.
// It returns sqlt.Invalid when the text is not parseable.
func TypeOf(sql string) sqlt.Type {
	s, err := Parse(sql)
	if err != nil {
		return sqlt.Invalid
	}
	return s.Type()
}

// MustParse parses sql and panics on error; for tests and static seeds.
func MustParse(sql string) sqlast.Statement {
	s, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return s
}

// MustParseScript parses a script and panics on error; for tests and seeds.
func MustParseScript(sql string) sqlast.TestCase {
	tc, err := ParseScript(sql)
	if err != nil {
		panic(err)
	}
	return tc
}

// CloneStatementByReparse deep-copies a statement by rendering and reparsing
// it. The printer/parser round trip is lossless (verified by property
// tests); it is kept solely as the oracle that the structural clone is
// checked against, and must not be used on the hot path.
func CloneStatementByReparse(s sqlast.Statement) sqlast.Statement {
	c, err := Parse(s.SQL())
	if err != nil {
		panic(fmt.Sprintf("sqlparse: clone round-trip failed for %q: %v", s.SQL(), err))
	}
	return c
}

// --- token helpers ---------------------------------------------------------

func (p *parser) atEOF() bool { return p.i >= len(p.toks) }

func (p *parser) peek() sqllex.Token {
	if p.atEOF() {
		return sqllex.Token{Kind: sqllex.EOF}
	}
	return p.toks[p.i]
}

func (p *parser) peekAt(n int) sqllex.Token {
	if p.i+n >= len(p.toks) {
		return sqllex.Token{Kind: sqllex.EOF}
	}
	return p.toks[p.i+n]
}

func (p *parser) next() sqllex.Token {
	t := p.peek()
	p.i++
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// isKw reports whether the current token is the given keyword.
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.Kind == sqllex.Ident && t.Up == kw
}

// accept consumes the keyword if present.
func (p *parser) accept(kw string) bool {
	if p.isKw(kw) {
		p.i++
		return true
	}
	return false
}

// expect consumes the keyword or fails.
func (p *parser) expect(kw string) error {
	if p.accept(kw) {
		return nil
	}
	return p.errf("expected %s, got %q", kw, p.peek().Text)
}

// acceptOp consumes the operator token if present.
func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == sqllex.Op && t.Text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if p.acceptOp(op) {
		return nil
	}
	return p.errf("expected %q, got %q", op, p.peek().Text)
}

// ident consumes an identifier token and returns its original spelling.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != sqllex.Ident {
		return "", p.errf("expected identifier, got %q", t.Text)
	}
	p.i++
	return t.Text, nil
}

// identList parses ident (, ident)*.
func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.acceptOp(",") {
			return out, nil
		}
	}
}

// parenIdentList parses ( ident, ident, ... ).
func (p *parser) parenIdentList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ids, err := p.identList()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ids, nil
}

func (p *parser) intLit() (int64, error) {
	neg := p.acceptOp("-")
	t := p.peek()
	if t.Kind != sqllex.Number {
		return 0, p.errf("expected integer, got %q", t.Text)
	}
	p.i++
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// --- statement dispatch ----------------------------------------------------

func (p *parser) statement() (sqlast.Statement, error) {
	t := p.peek()
	if t.Kind != sqllex.Ident {
		return nil, p.errf("expected statement keyword, got %q", t.Text)
	}
	switch t.Up {
	case "CREATE":
		return p.createStmt()
	case "ALTER":
		return p.alterStmt()
	case "DROP":
		return p.dropStmt()
	case "RENAME":
		return p.renameTableStmt()
	case "TRUNCATE":
		p.i++
		p.accept("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.TruncateStmt{Table: name}, nil
	case "COMMENT":
		return p.commentOnStmt()
	case "REINDEX":
		p.i++
		kind := ""
		if p.accept("TABLE") {
			kind = "TABLE"
		} else if p.accept("INDEX") {
			kind = "INDEX"
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.ReindexStmt{Kind: kind, Name: name}, nil
	case "REFRESH":
		p.i++
		if err := p.expect("MATERIALIZED"); err != nil {
			return nil, err
		}
		if err := p.expect("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.RefreshMatViewStmt{Name: name}, nil
	case "INSERT", "REPLACE":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "MERGE":
		return p.mergeStmt()
	case "COPY":
		return p.copyStmt()
	case "LOAD":
		return p.loadDataStmt()
	case "CALL":
		return p.callStmt()
	case "DO":
		p.i++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &sqlast.DoStmt{Body: e}, nil
	case "SELECT":
		return p.selectStmt()
	case "TABLE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.TableStmtNode{Name: name}, nil
	case "VALUES":
		rows, err := p.valuesRows()
		if err != nil {
			return nil, err
		}
		return &sqlast.ValuesStmtNode{Rows: rows}, nil
	case "WITH":
		return p.withStmt()
	case "EXPLAIN":
		p.i++
		analyze := p.accept("ANALYZE")
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &sqlast.ExplainStmt{Analyze: analyze, Stmt: inner}, nil
	case "SHOW":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		// canonicalize the keyword forms; variable names keep their case
		switch strings.ToUpper(name) {
		case "TABLES", "DATABASES":
			name = strings.ToUpper(name)
		}
		return &sqlast.ShowStmt{Name: name}, nil
	case "DESCRIBE", "DESC":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.DescribeStmt{Table: name}, nil
	case "GRANT", "REVOKE":
		return p.grantStmt()
	case "SET":
		return p.setStmt()
	case "BEGIN":
		p.i++
		p.accept("TRANSACTION")
		p.accept("WORK")
		return &sqlast.TxnStmt{What: sqlt.Begin}, nil
	case "START":
		p.i++
		if err := p.expect("TRANSACTION"); err != nil {
			return nil, err
		}
		return &sqlast.TxnStmt{What: sqlt.Begin}, nil
	case "COMMIT":
		p.i++
		p.accept("WORK")
		return &sqlast.TxnStmt{What: sqlt.Commit}, nil
	case "ROLLBACK":
		p.i++
		p.accept("WORK")
		if p.accept("TO") {
			p.accept("SAVEPOINT")
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &sqlast.TxnStmt{What: sqlt.RollbackToSavepoint, Name: name}, nil
		}
		return &sqlast.TxnStmt{What: sqlt.Rollback}, nil
	case "SAVEPOINT":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.TxnStmt{What: sqlt.Savepoint, Name: name}, nil
	case "RELEASE":
		p.i++
		p.accept("SAVEPOINT")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.TxnStmt{What: sqlt.ReleaseSavepoint, Name: name}, nil
	case "LOCK":
		p.i++
		p.accept("TABLE")
		p.accept("TABLES")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		mode := ""
		if p.accept("IN") {
			m, err := p.ident()
			if err != nil {
				return nil, err
			}
			mode = strings.ToUpper(m)
			p.accept("MODE")
		}
		return &sqlast.LockTableStmt{Table: name, Mode: mode}, nil
	case "RESET":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.ResetVarStmt{Name: name}, nil
	case "PRAGMA":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var val sqlast.Expr
		if p.acceptOp("=") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			val = v
		}
		return &sqlast.PragmaStmt{Name: name, Value: val}, nil
	case "USE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.UseStmt{DB: name}, nil
	case "ANALYZE":
		p.i++
		name := ""
		if p.peek().Kind == sqllex.Ident {
			name, _ = p.ident()
		}
		return &sqlast.AnalyzeStmt{Table: name}, nil
	case "VACUUM":
		p.i++
		full := p.accept("FULL")
		name := ""
		if p.peek().Kind == sqllex.Ident {
			name, _ = p.ident()
		}
		return &sqlast.VacuumStmt{Full: full, Table: name}, nil
	case "OPTIMIZE":
		p.i++
		if err := p.expect("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.MaintenanceStmt{What: sqlt.OptimizeTable, Table: name}, nil
	case "CHECK":
		p.i++
		if err := p.expect("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.MaintenanceStmt{What: sqlt.CheckTable, Table: name}, nil
	case "FLUSH":
		p.i++
		what, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.FlushStmt{What: strings.ToUpper(what)}, nil
	case "CHECKPOINT":
		p.i++
		return &sqlast.CheckpointStmt{}, nil
	case "DISCARD":
		p.i++
		what, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.DiscardStmt{What: strings.ToUpper(what)}, nil
	case "PREPARE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &sqlast.PrepareStmt{Name: name, Stmt: inner}, nil
	case "EXECUTE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var args []sqlast.Expr
		if p.acceptOp("(") {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		return &sqlast.ExecuteStmt{Name: name, Args: args}, nil
	case "DEALLOCATE":
		p.i++
		p.accept("PREPARE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.DeallocateStmt{Name: name}, nil
	case "DECLARE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("CURSOR"); err != nil {
			return nil, err
		}
		if err := p.expect("FOR"); err != nil {
			return nil, err
		}
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &sqlast.DeclareCursorStmt{Name: name, Query: q}, nil
	case "FETCH":
		p.i++
		var count int64
		if p.peek().Kind == sqllex.Number {
			n, err := p.intLit()
			if err != nil {
				return nil, err
			}
			count = n
			if err := p.expect("FROM"); err != nil {
				return nil, err
			}
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.FetchStmt{Count: count, Cursor: name}, nil
	case "CLOSE":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.CloseCursorStmt{Name: name}, nil
	case "LISTEN":
		p.i++
		ch, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.ListenStmt{Channel: ch}, nil
	case "NOTIFY":
		p.i++
		ch, err := p.ident()
		if err != nil {
			return nil, err
		}
		payload := ""
		if p.acceptOp(",") {
			t := p.peek()
			if t.Kind != sqllex.String {
				return nil, p.errf("expected string payload after NOTIFY channel")
			}
			p.i++
			payload = t.Text
		}
		return &sqlast.NotifyStmt{Channel: ch, Payload: payload}, nil
	case "UNLISTEN":
		p.i++
		if p.acceptOp("*") {
			return &sqlast.UnlistenStmt{Channel: "*"}, nil
		}
		ch, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnlistenStmt{Channel: ch}, nil
	case "CLUSTER":
		p.i++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		idx := ""
		if p.accept("USING") {
			idx, err = p.ident()
			if err != nil {
				return nil, err
			}
		}
		return &sqlast.ClusterStmt{Table: name, Index: idx}, nil
	default:
		return nil, p.errf("unknown statement keyword %q", t.Text)
	}
}
