// Package mutate implements LEGO's mutation operators.
//
// Sequence-oriented mutation (paper Algorithm 1) changes the SQL Type
// Sequence of a seed — substituting, inserting, or deleting whole statements
// — and is the exploration engine of proactive affinity analysis.
// Conventional mutation preserves the sequence and perturbs structure and
// data inside individual statements, which is all that mutation-based
// baselines like SQUIRREL do.
package mutate

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Mutator produces mutated test cases. A mutant shares the seed's
// statements it keeps unchanged and the library structures it picks, all of
// which are frozen: the mutator clones only the statements it perturbs, and
// the fixer copies only the nodes it repairs, from a statement's root down
// to the field it writes, so a repaired statement still shares its other
// subtrees with the frozen original. The seed is never modified, and a
// mutant is as frozen as the statements it shares.
type Mutator struct {
	Rng  *rand.Rand
	Inst *instantiate.Instantiator
	// Dialect gates which statement types substitution/insertion may pick.
	Dialect sqlt.Dialect
	// MaxStatements caps test-case length so mutants stay fast to execute
	// (the paper's challenge C3).
	MaxStatements int
}

// New returns a mutator.
func New(rng *rand.Rand, inst *instantiate.Instantiator, d sqlt.Dialect) *Mutator {
	return &Mutator{Rng: rng, Inst: inst, Dialect: d, MaxStatements: 12}
}

// randomOtherType picks a dialect type different from t.
func (m *Mutator) randomOtherType(t sqlt.Type) sqlt.Type {
	ts := m.Dialect.Types()
	for tries := 0; tries < 8; tries++ {
		cand := ts[m.Rng.Intn(len(ts))]
		if cand != t {
			return cand
		}
	}
	return ts[0]
}

// SubstituteType implements Algorithm 1's substitution: statement i is
// replaced by a statement of another type, then dependencies are refilled.
func (m *Mutator) SubstituteType(tc sqlast.TestCase, i int) sqlast.TestCase {
	if i < 0 || i >= len(tc) {
		return nil
	}
	newType := m.randomOtherType(tc[i].Type())
	stmt, fresh := m.Inst.Statement(newType)
	out := append(make(sqlast.TestCase, 0, len(tc)), tc[:i]...)
	out = append(out, stmt)
	out = append(out, tc[i+1:]...)
	m.fix(out, i, fresh)
	return out
}

// InsertAfter implements Algorithm 1's insertion: a statement of a random
// type is added after statement i.
func (m *Mutator) InsertAfter(tc sqlast.TestCase, i int) sqlast.TestCase {
	if i < 0 || i >= len(tc) || len(tc) >= m.MaxStatements {
		return nil
	}
	stmt, fresh := m.Inst.Statement(m.randomOtherType(tc[i].Type()))
	out := append(make(sqlast.TestCase, 0, len(tc)+1), tc[:i+1]...)
	out = append(out, stmt)
	out = append(out, tc[i+1:]...)
	m.fix(out, i+1, fresh)
	return out
}

// DeleteAt implements Algorithm 1's deletion: statement i is removed and the
// remaining test case is re-validated.
func (m *Mutator) DeleteAt(tc sqlast.TestCase, i int) sqlast.TestCase {
	if i < 0 || i >= len(tc) || len(tc) <= 1 {
		return nil
	}
	out := append(make(sqlast.TestCase, 0, len(tc)-1), tc[:i]...)
	out = append(out, tc[i+1:]...)
	m.Inst.Fixer.Fix(out)
	return out
}

// fix refills a sequence mutant's dependencies; the mutant owns its new
// statement at index i only when the instantiator generated it.
func (m *Mutator) fix(out sqlast.TestCase, i int, fresh bool) {
	if fresh {
		m.Inst.Fixer.Fix(out, i)
	} else {
		m.Inst.Fixer.Fix(out)
	}
}

// MutateValues is the conventional, sequence-preserving mutation: it
// perturbs literals and clause structure inside one random statement, and
// sometimes a second, each a clone of the seed's. The SQL Type Sequence of
// the result equals the input's.
func (m *Mutator) MutateValues(tc sqlast.TestCase) sqlast.TestCase {
	if len(tc) == 0 {
		return nil
	}
	out := append(make(sqlast.TestCase, 0, len(tc)), tc...)
	i := m.Rng.Intn(len(out))
	out[i] = out[i].Clone()
	m.mutateStatement(out[i])
	j := i
	if m.Rng.Intn(2) == 0 { // occasionally touch a second statement
		j = m.Rng.Intn(len(out))
		if j != i {
			out[j] = out[j].Clone()
		}
		m.mutateStatement(out[j])
	}
	if m.Rng.Intn(3) != 0 { // semantics-guided refill, SQUIRREL-style
		m.Inst.Fixer.Fix(out, i, j)
	}
	return out
}

// mutateStatement perturbs one statement in place.
func (m *Mutator) mutateStatement(s sqlast.Statement) {
	switch st := s.(type) {
	case *sqlast.SelectStmt:
		m.mutateSelect(st)
	case *sqlast.InsertStmt:
		for j := range st.Rows {
			row := st.Rows[j]
			for k := range row {
				row[k] = m.mutateExpr(row[k])
			}
			// arity mutation: growing or shrinking a VALUES tuple is a
			// classic structural mutation and a reliable error-path driver
			switch m.Rng.Intn(6) {
			case 0:
				row = append(row, sqlast.NullLit())
			case 1:
				if len(row) > 1 {
					row = row[:len(row)-1]
				}
			}
			st.Rows[j] = row
		}
		if m.Rng.Intn(4) == 0 {
			st.Ignore = !st.Ignore
		}
	case *sqlast.UpdateStmt:
		for j := range st.Sets {
			st.Sets[j].Value = m.mutateExpr(st.Sets[j].Value)
		}
		st.Where = m.mutateWhere(st.Where)
	case *sqlast.DeleteStmt:
		st.Where = m.mutateWhere(st.Where)
	case *sqlast.CreateTableStmt:
		for j := range st.Cols {
			if m.Rng.Intn(3) == 0 {
				st.Cols[j].TypeName = pick(m.Rng, []string{"INT", "FLOAT", "TEXT", "BOOLEAN", "VARCHAR(100)"})
			}
			if m.Rng.Intn(6) == 0 {
				st.Cols[j].NotNull = !st.Cols[j].NotNull
			}
		}
	case *sqlast.CreateViewStmt:
		m.mutateSelect(st.Query)
	case *sqlast.ExplainStmt:
		m.mutateStatement(st.Stmt)
	case *sqlast.WithStmt:
		for j := range st.CTEs {
			m.mutateStatement(st.CTEs[j].Body)
		}
		m.mutateStatement(st.Body)
	case *sqlast.SetVarStmt:
		st.Value = m.mutateExpr(st.Value)
	case *sqlast.PragmaStmt:
		if st.Value != nil {
			st.Value = m.mutateExpr(st.Value)
		}
	}
}

func (m *Mutator) mutateSelect(q *sqlast.SelectStmt) {
	if q == nil {
		return
	}
	switch m.Rng.Intn(6) {
	case 0:
		q.Distinct = !q.Distinct
	case 1:
		q.Where = m.mutateWhere(q.Where)
	case 2:
		if q.Limit == nil {
			q.Limit = sqlast.IntLit(int64(m.Rng.Intn(20)))
		} else {
			q.Limit = m.mutateExpr(q.Limit)
		}
	case 3:
		if len(q.OrderBy) > 0 {
			j := m.Rng.Intn(len(q.OrderBy))
			q.OrderBy[j].Desc = !q.OrderBy[j].Desc
		} else if len(q.Items) > 0 {
			if _, isStar := q.Items[0].X.(*sqlast.Star); !isStar {
				q.OrderBy = []sqlast.OrderItem{{X: q.Items[0].X}}
			}
		}
	case 4:
		for j := range q.Items {
			if _, isStar := q.Items[j].X.(*sqlast.Star); !isStar {
				q.Items[j].X = m.mutateExpr(q.Items[j].X)
			}
		}
	default:
		q.Where = m.mutateWhere(q.Where)
	}
}

// mutateWhere toggles, replaces, or perturbs a predicate.
func (m *Mutator) mutateWhere(w sqlast.Expr) sqlast.Expr {
	switch {
	case w == nil:
		return &sqlast.Binary{Op: "=", L: &sqlast.ColRef{Name: "c0"}, R: sqlast.IntLit(int64(m.Rng.Intn(10)))}
	case m.Rng.Intn(5) == 0:
		return nil
	default:
		return m.mutateExpr(w)
	}
}

var cmpSwap = map[string]string{"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

// mutateExpr perturbs literals and operators within an expression tree.
func (m *Mutator) mutateExpr(x sqlast.Expr) sqlast.Expr {
	if x == nil {
		return nil
	}
	return sqlast.RewriteExpr(x, func(n sqlast.Expr) sqlast.Expr {
		switch v := n.(type) {
		case *sqlast.Literal:
			if m.Rng.Intn(3) != 0 {
				return n
			}
			return m.mutateLiteral(v)
		case *sqlast.Binary:
			if sw, isCmp := cmpSwap[v.Op]; isCmp && m.Rng.Intn(6) == 0 {
				v.Op = sw
			}
			return v
		default:
			return n
		}
	})
}

// mutateLiteral produces boundary values and type confusions — the payload
// of memory-bug fuzzing. Mutated literals frequently make statements error,
// which exercises server error paths that rule-based generators rarely hit.
func (m *Mutator) mutateLiteral(l *sqlast.Literal) sqlast.Expr {
	switch m.Rng.Intn(10) {
	case 0:
		return sqlast.IntLit(0)
	case 1:
		return sqlast.IntLit(-1)
	case 2:
		return sqlast.IntLit(1<<63 - 1)
	case 3:
		return sqlast.IntLit(-(1 << 62))
	case 4:
		return sqlast.NullLit()
	case 5:
		return sqlast.StringLit("")
	case 6:
		return sqlast.StringLit("x' LIKE NULL")
	case 7:
		return sqlast.FloatLit(22471185.000000)
	case 8:
		if l.Kind == sqlast.LitInt {
			return sqlast.IntLit(l.Int + int64(m.Rng.Intn(7)) - 3)
		}
		return sqlast.IntLit(int64(m.Rng.Intn(1000)))
	default:
		return sqlast.BoolLit(m.Rng.Intn(2) == 0)
	}
}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }
