package minidb

import (
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// This file is the engine's rewrite component: PostgreSQL-style rules and
// WITH (CTE) processing. It deliberately mirrors the code structure of the
// paper's §V-B case study — RewriteQuery recursively processes DML inside
// WITH clauses and pushes single-statement DO INSTEAD rule results back into
// the CTE; replaceEmptyJointree backstops queries without a FROM clause.
// The seeded bug CVE-LEGO-PG-JOINTREE reproduces the paper's PostgreSQL
// SEGV: when a DO INSTEAD NOTIFY rule rewrites the INSERT inside a WITH
// clause, the CTE's query is left with a nil jointree and the planner
// dereferences it.

// applyRules checks for DO INSTEAD rules on (table, event). When an instead
// rule exists, the original DML is replaced by the rule actions and the
// caller must not perform the base operation.
func (e *Engine) applyRules(table string, ev sqlast.TriggerEvent) (handled bool, res *Result, err error) {
	rules := e.cat.rulesFor(table, ev)
	if len(rules) == 0 {
		return false, nil, nil
	}
	e.hit(pRewriteRule)
	if e.rewriteDepth >= e.limits.MaxRewriteDepth {
		return true, e.result(Result{Msg: "rule depth cap"}), nil
	}
	e.rewriteDepth++
	defer func() { e.rewriteDepth-- }()

	anyInstead := false
	for _, r := range rules {
		if !r.Instead {
			// non-instead rules run in addition to the base operation
			if r.Action != nil {
				if _, aerr := e.dispatch(r.Action); aerr != nil {
					return true, nil, aerr
				}
			}
			continue
		}
		anyInstead = true
		e.hit(pRewriteInstead)
		if r.Action == nil {
			e.hit(pRewriteNothing)
			continue
		}
		if _, isNotify := r.Action.(*sqlast.NotifyStmt); isNotify {
			e.hit(pRewriteNotify)
			// Record that a DML statement was rewritten into a NOTIFY; if
			// this happened while rewriting a WITH clause, the CTE query
			// has lost its jointree (the case-study condition).
			if e.inWCTERewrite {
				e.wcteNotifyRewrite = true
			}
		}
		if _, aerr := e.dispatch(r.Action); aerr != nil {
			return true, nil, aerr
		}
	}
	if !anyInstead {
		return false, nil, nil
	}
	return true, e.result(Result{Msg: "rewritten by rule"}), nil
}

// cte is a WITH query in scope, by name.
type cte struct {
	name string
	rel  *relation
}

// execWith implements WITH ... <body>: CTE relations are materialized onto
// the engine's list of those in scope (ctes), which name resolution reads
// until the body returns, and writable CTEs (DML bodies) execute
// in order, mirroring RewriteQuery's recursive processing of
// insert/update/delete statements in WITH.
func (e *Engine) execWith(st *sqlast.WithStmt) (*Result, error) {
	if st.Type() == sqlt.WithDML {
		e.hit(pRewriteWCTE)
	} else {
		e.hit(pRewriteCTE)
	}
	if e.rewriteDepth >= e.limits.MaxRewriteDepth {
		return nil, e.errValue("WITH nesting too deep")
	}
	e.rewriteDepth++
	defer func() { e.rewriteDepth-- }()

	defer func(n int) { clear(e.ctes[n:]); e.ctes = e.ctes[:n] }(len(e.ctes))

	for _, c := range st.CTEs {
		switch body := c.Body.(type) {
		case *sqlast.SelectStmt:
			rows, cols, err := e.execSelect(body, nil, 0)
			if err != nil {
				return nil, err
			}
			if len(c.Cols) > 0 {
				for i := range cols {
					if i < len(c.Cols) {
						cols[i] = c.Cols[i]
					}
				}
			}
			e.ctes = append(e.ctes, cte{c.Name, e.newRelation(cols, e.quals(len(cols), ""), rows)})
		default:
			// Writable CTE: recursively rewrite-and-execute the DML. This
			// is the RewriteQuery path of the case study.
			e.hit(pRewriteQuery)
			e.inWCTERewrite = true
			res, err := e.dispatch(c.Body)
			e.inWCTERewrite = false
			if err != nil {
				return nil, err
			}
			// A DO INSTEAD NOTIFY rule swallowed the DML: the CTE's query
			// node now has no jointree. PostgreSQL misses this case and the
			// planner crashes later in replace_empty_jointree (seeded bug).
			cols := c.Cols
			if len(cols) == 0 {
				cols = e.names(1)
				cols[0] = "ctid"
			}
			rows := [][]Value{}
			if res != nil && len(res.Rows) > 0 {
				rows = res.Rows
			}
			e.ctes = append(e.ctes, cte{c.Name, e.newRelation(cols, e.quals(len(cols), ""), rows)})
		}
	}
	res, err := e.dispatch(st.Body)
	// The crash fires when the *body* query plans after the NOTIFY rewrite,
	// matching the paper's trigger sequence CREATE RULE -> NOTIFY -> ... ->
	// WITH(DML).
	if e.wcteNotifyRewrite {
		e.wcteNotifyRewrite = false
		if e.cfg.Dialect == sqlt.DialectPostgres && e.hazardsArmed() {
			e.raiseBug(bugPGJointree)
		}
	}
	return res, err
}

// replaceEmptyJointree supplies the implicit one-row relation for queries
// with no FROM clause, mirroring PostgreSQL's function of the same name.
func (e *Engine) replaceEmptyJointree() *relation {
	return e.newRelation(nil, nil, nil)
}

func (e *Engine) execExplain(st *sqlast.ExplainStmt) (*Result, error) {
	e.hit(pExplain)
	plan := e.planText(st.Stmt)
	if st.Analyze {
		e.hit(pExplainAnalyze)
		// EXPLAIN ANALYZE actually executes the statement.
		if _, err := e.dispatch(st.Stmt); err != nil {
			return nil, err
		}
	}
	rows := make([][]Value, len(plan))
	for i, line := range plan {
		rows[i] = []Value{Text(line)}
	}
	return e.result(Result{Cols: []string{"QUERY PLAN"}, Rows: rows}), nil
}

// planText renders a plan sketch for EXPLAIN, taking the same access-path
// decisions the executor takes (so EXPLAIN exercises optimizer branches).
func (e *Engine) planText(s sqlast.Statement) []string {
	switch st := s.(type) {
	case *sqlast.SelectStmt:
		var lines []string
		if len(st.From) == 0 {
			lines = append(lines, "Result")
		} else if name, isBase := baseTableOf(st); isBase {
			if col, isEq := eqPredicateColumn(st.Where); isEq {
				useIdx := false
				for _, ix := range e.cat.indexesFor(nil, name) {
					for _, c := range ix.Cols {
						if c == col && !ix.stale {
							useIdx = true
							lines = append(lines, "Index Scan using "+ix.Name+" on "+name)
							break
						}
					}
					if useIdx {
						break
					}
				}
				if !useIdx {
					lines = append(lines, "Seq Scan on "+name)
				}
			} else {
				lines = append(lines, "Seq Scan on "+name)
			}
		} else {
			lines = append(lines, "Nested Loop")
		}
		if len(st.GroupBy) > 0 {
			lines = append([]string{"HashAggregate"}, lines...)
		}
		if len(st.OrderBy) > 0 {
			lines = append([]string{"Sort"}, lines...)
		}
		if st.Limit != nil {
			lines = append([]string{"Limit"}, lines...)
		}
		return lines
	case *sqlast.InsertStmt:
		return []string{"Insert on " + st.Table}
	case *sqlast.UpdateStmt:
		return []string{"Update on " + st.Table}
	case *sqlast.DeleteStmt:
		return []string{"Delete on " + st.Table}
	default:
		return []string{"Utility"}
	}
}
