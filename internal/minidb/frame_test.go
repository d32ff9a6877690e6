package minidb

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// The reference scopes below reproduce how each site bound a row before
// frames: a map written in the site's order, so the last write of a key
// wins. A frame must resolve every name exactly as its site's map did.
type refScope map[string]Value

// refTable binds a table row: each of the row's first min(len(row),
// len(t.Cols)) columns under its name and "table.name", forward.
func refTable(t *Table, row []Value) refScope {
	m := refScope{}
	for c := range t.Cols {
		if c >= len(row) {
			break
		}
		m[t.Cols[c].Name] = row[c]
		m[t.Name+"."+t.Cols[c].Name] = row[c]
	}
	return m
}

// refRelation binds a relation row right to left, so the leftmost duplicate
// wins; an empty qualifier binds no qualified key.
func refRelation(r *relation, row []Value) refScope {
	m := refScope{}
	for c := len(r.cols) - 1; c >= 0; c-- {
		m[r.cols[c]] = row[c]
		if r.qual[c] != "" {
			m[r.qual[c]+"."+r.cols[c]] = row[c]
		}
	}
	return m
}

// refOutput binds sortRows' output columns forward, only those the row has.
func refOutput(cols []string, row []Value) refScope {
	m := refScope{}
	for c, name := range cols {
		if c < len(row) {
			m[name] = row[c]
		}
	}
	return m
}

// refMergeOn binds MERGE's ON pair: the target row under its names and
// "target.name", then the source row under "source.name".
func refMergeOn(target string, tcols []Column, trow []Value, source string, scols []Column, srow []Value) refScope {
	m := refScope{}
	for ci := range tcols {
		m[tcols[ci].Name] = trow[ci]
		m[target+"."+tcols[ci].Name] = trow[ci]
	}
	for ci := range scols {
		m[source+"."+scols[ci].Name] = srow[ci]
	}
	return m
}

// refMergeInsert binds an unmatched MERGE source row under its names and
// "source.name".
func refMergeInsert(source string, scols []Column, srow []Value) refScope {
	m := refScope{}
	for ci := range scols {
		m[scols[ci].Name] = srow[ci]
		m[source+"."+scols[ci].Name] = srow[ci]
	}
	return m
}

// refCheck binds a CHECK's row as refTable does, then VALUE.
func refCheck(t *Table, row []Value, v Value) refScope {
	m := refTable(t, row)
	m["VALUE"] = v
	return m
}

// checkLookups fails unless sc resolves every probe as ref does: each name
// and table of the alphabets bare and qualified, and every key ref holds,
// bare and split at each of its dots.
func checkLookups(t *testing.T, what string, sc *scope, ref refScope, names, tables []string) {
	t.Helper()
	probe := func(table, name string) {
		t.Helper()
		key := name
		if table != "" {
			key = table + "." + name
		}
		want, wok := ref[key]
		got, gok := sc.lookup(table, name)
		if wok != gok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lookup(%q, %q) = %v, %v; map scope has %v, %v", what, table, name, got, gok, want, wok)
		}
	}
	for _, n := range names {
		probe("", n)
		for _, q := range tables {
			if q != "" {
				probe(q, n)
			}
		}
	}
	for key := range ref {
		probe("", key)
		for i := range len(key) {
			if key[i] == '.' && i > 0 {
				probe(key[:i], key[i+1:])
			}
		}
	}
}

// slotRow returns n distinct values, so a lookup shows which slot it read.
func slotRow(base, n int) []Value {
	row := make([]Value, n)
	for c := range row {
		row[c] = Int(int64(base + c))
	}
	return row
}

// TestTableScopeMatchesRowScope: the table scope a DML evaluator reuses
// across rows resolves every name as the map a table row used to bind,
// row after row, while a trigger renames the table or its columns, adds a
// column, or leaves a row shorter than the table.
func TestTableScopeMatchesRowScope(t *testing.T) {
	tbl := &Table{Name: "t", Cols: []Column{{Name: "a"}, {Name: "b"}, {Name: "a"}}}
	row := []Value{Int(1), Int(2), Int(3)}
	steps := []struct {
		reshape func()
		row     []Value
	}{
		{nil, row},
		{nil, row[:2]},
		{nil, row},
		{func() { tbl.Cols[1].Name = "c" }, row},
		{func() { tbl.Name = "u" }, row},
		{func() { tbl.Cols = append(tbl.Cols, Column{Name: "d"}) }, row},
		{nil, []Value{Int(4), Int(5), Int(6), Int(7)}},
		{func() { tbl.Cols = tbl.Cols[:1] }, row},
	}
	names := []string{"a", "b", "c", "d", "zz"}
	tables := []string{"t", "u"}
	var x evalScratch
	for i, st := range steps {
		if st.reshape != nil {
			st.reshape()
		}
		checkLookups(t, fmt.Sprintf("step %d", i), x.tableScope(tbl, st.row), refTable(tbl, st.row), names, tables)
	}
}

// frameNames and frameTables are the fuzz alphabets: duplicates, the empty
// name, and dotted bare names that collide with qualified keys.
var (
	frameNames  = []string{"a", "b", "t", "t.a", "", "a.b", "VALUE", "value"}
	frameTables = []string{"t", "u", "", "t.a", "a"}
)

// FuzzFrameLookupMatchesMapScope: every site's frame resolves every bare
// and qualified name, present or absent, to the same value as the map that
// site used to build: table rows (short, long, and rebound on one scratch
// as the table changes), relation rows, output columns of varying width,
// MERGE's ON pair and unmatched source row, and CHECK with VALUE.
func FuzzFrameLookupMatchesMapScope(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 1, 3, 2, 1, 0, 4, 5, 1, 3, 2})
	f.Add([]byte{4, 2, 3, 4, 1, 0, 1, 2, 3, 3, 4, 2, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 3, 1, 3, 0, 0, 4, 1, 2, 1, 3, 0, 2, 9, 9, 9})
	e := New(Config{Dialect: sqlt.DialectMySQL})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		cols := func() []Column {
			cs := make([]Column, next(5))
			for c := range cs {
				cs[c].Name = frameNames[next(len(frameNames))]
			}
			return cs
		}
		names := func(cs []Column) []string {
			var ns []string
			for _, c := range cs {
				ns = append(ns, c.Name)
			}
			return ns
		}
		probeNames := append(append([]string{}, frameNames...), "zz", "t.t.a")
		probeTables := append(append([]string{}, frameTables...), "zz")
		check := func(what string, sc *scope, ref refScope) {
			t.Helper()
			checkLookups(t, what, sc, ref, probeNames, probeTables)
		}

		// Table rows, rebound on one scratch as the table changes.
		var x evalScratch
		for step := range 3 {
			tbl := &Table{Name: frameTables[next(len(frameTables))], Cols: cols()}
			row := slotRow(100*step, next(len(tbl.Cols)+2))
			check("table", x.tableScope(tbl, row), refTable(tbl, row))
			if len(row) >= len(tbl.Cols) && len(tbl.Cols) > 0 {
				ci := next(len(tbl.Cols))
				check("check", x.checkScope(tbl, row, row[ci]), refCheck(tbl, row, row[ci]))
			}
		}

		// Relation rows: a row binds at least the relation's width.
		tcols := cols()
		rel := &relation{cols: names(tcols)}
		for range rel.cols {
			rel.qual = append(rel.qual, frameTables[next(len(frameTables))])
		}
		row := slotRow(500, len(rel.cols)+next(2))
		var sc scope
		check("relation", rel.scopeRowInto(row, nil, &sc), refRelation(rel, row))

		// Output columns, rows of varying width on one evaluator.
		ev := e.outputEval(nil, rel.cols, nil, nil)
		for step := range 3 {
			orow := slotRow(600+100*step, next(len(rel.cols)+2))
			ev.bind(orow, nil, nil)
			check("output", &ev.x.sc, refOutput(rel.cols, orow))
		}
		e.putScratch(ev.x)

		// MERGE: the ON pair and an unmatched source row.
		target, source := frameTables[next(len(frameTables))], frameTables[next(len(frameTables))]
		scols := cols()
		trow, srow := slotRow(900, len(tcols)), slotRow(950, len(scols))
		on, ins := mergeKeys(target, tcols, source, scols)
		pair := append(append([]Value{}, trow...), srow...)
		check("merge on", &scope{frame: frame{on, pair}}, refMergeOn(target, tcols, trow, source, scols, srow))
		check("merge insert", &scope{frame: frame{ins, srow}}, refMergeInsert(source, scols, srow))
	})
}

// TestFrameQualifiedLookupMatchesConcatenation: a qualified probe matches a
// key exactly when the key equals table+"."+name, dotted parts included.
func TestFrameQualifiedLookupMatchesConcatenation(t *testing.T) {
	for _, key := range []string{"t.a", "t.t.a", "a.b.c", ".a", "a.", ".", ""} {
		f := frame{binds: []binding{{key, 0}}, vals: []Value{Int(1)}}
		for _, table := range []string{"t", "t.t", "a", "a.b", ""} {
			for _, name := range []string{"a", "t.a", "b.c", "c", ""} {
				want := key == name
				if table != "" {
					want = key == table+"."+name
				}
				if _, got := f.get(table, name); got != want {
					t.Errorf("key %q: get(%q, %q) found %v, want %v", key, table, name, got, want)
				}
			}
		}
	}
}
