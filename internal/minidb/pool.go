package minidb

// Per-test-case storage. Every test case starts from an empty database, so
// the tables, transaction snapshots and rows it builds all die at the next
// RunTestCase. Inside RunTestCase the engine hands them out from pools that
// the next reset takes back whole, instead of from the heap. Outside it (the
// REPL, lego.DB) nothing resets the engine, so every taker allocates as a
// plain constructor would.
//
// A pooled object reads exactly as a new one: a recycled table or catalog is
// cleared and keeps only its arrays' capacity, and a Rows array or a row is
// handed out capped at its length, as make would, because a later append
// must reallocate where the heap one would (a result or MERGE's source loop
// may still read the old array). What a test case took is recycled from
// per-engine lists in the order it was taken, never by ranging over a
// catalog map.
type pools struct {
	on bool // inside RunTestCase

	// tables and cats hold what this test case took; cats[0] is the catalog
	// that was live when it began, recycled at the next reset once ROLLBACK
	// has swapped it out. freeTables and freeCats are cleared and ready.
	tables, freeTables []*Table
	cats, freeCats     []*Catalog

	// This test case's rows come from chunks[:used]; free is the unused
	// tail of chunks[used-1].
	chunks [][]Value
	used   int
	free   []Value
}

const (
	// maxPooledTables and maxPooledCatalogs bound both what one test case
	// takes from the pools (past it, takers allocate) and what the engine
	// keeps across test cases.
	maxPooledTables   = 64
	maxPooledCatalogs = 16
	// maxPooledRows is the largest Rows array a recycled table keeps.
	maxPooledRows = 256
	// rowChunk values make one arena chunk; a test case takes rows from at
	// most maxRowChunks of them, and rows past that come from the heap, so
	// a trigger cascade cannot pin every row version it writes.
	rowChunk     = 512
	maxRowChunks = 16
)

// takeTable returns an empty table.
//
//lego:hotpath
func (e *Engine) takeTable() *Table {
	p := &e.pool
	if !p.on || len(p.tables) == maxPooledTables {
		return &Table{}
	}
	var t *Table
	if n := len(p.freeTables); n > 0 {
		t, p.freeTables = p.freeTables[n-1], p.freeTables[:n-1]
	} else {
		t = &Table{}
	}
	p.tables = append(p.tables, t)
	return t
}

// takeCatalog returns a catalog equal to NewCatalog()'s.
//
//lego:hotpath
func (e *Engine) takeCatalog() *Catalog {
	p := &e.pool
	if !p.on || len(p.cats) == maxPooledCatalogs {
		return NewCatalog()
	}
	var c *Catalog
	if n := len(p.freeCats); n > 0 {
		c, p.freeCats = p.freeCats[n-1], p.freeCats[:n-1]
	} else {
		c = NewCatalog()
	}
	p.cats = append(p.cats, c)
	return c
}

// row returns a zeroed (all-NULL) row of n values, capped at n.
//
//lego:hotpath
func (e *Engine) row(n int) []Value {
	p := &e.pool
	if n == 0 || n > len(p.free) {
		if n == 0 || !p.on || n > rowChunk || p.used == maxRowChunks {
			return make([]Value, n)
		}
		if p.used == len(p.chunks) {
			p.chunks = append(p.chunks, make([]Value, rowChunk))
		}
		p.free = p.chunks[p.used]
		p.used++
	}
	r := p.free[:n:n]
	p.free = p.free[n:]
	return r
}

// copyRow returns a copy of r.
//
//lego:hotpath
func (e *Engine) copyRow(r []Value) []Value {
	c := e.row(len(r))
	copy(c, r)
	return c
}

// joinRow returns a followed by b.
//
//lego:hotpath
func (e *Engine) joinRow(a, b []Value) []Value {
	c := e.row(len(a) + len(b))
	copy(c[copy(c, a):], b)
	return c
}

// resetPools takes back everything the finished test case took. The live
// catalog, already cleared, stays live and becomes the next case's cats[0].
func (e *Engine) resetPools() {
	p := &e.pool
	for _, c := range p.cats {
		if c != e.cat && len(p.freeCats) < maxPooledCatalogs {
			c.reset()
			p.freeCats = append(p.freeCats, c)
		}
	}
	clear(p.cats)
	p.cats = append(p.cats[:0], e.cat)
	for _, t := range p.tables {
		if len(p.freeTables) < maxPooledTables {
			t.recycle()
			p.freeTables = append(p.freeTables, t)
		}
	}
	clear(p.tables)
	p.tables = p.tables[:0]
	for i := range p.used {
		c := p.chunks[i]
		if i == p.used-1 {
			c = c[:len(c)-len(p.free)]
		}
		clear(c)
	}
	p.used, p.free = 0, nil
}

// recycle empties t for takeTable, keeping its arrays' capacity (a Rows
// array only up to maxPooledRows) and dropping every element they held.
func (t *Table) recycle() {
	rows := t.Rows[:cap(t.Rows)]
	if len(rows) > maxPooledRows {
		rows = nil
	}
	clear(rows)
	clear(t.Cols[:cap(t.Cols)])
	clear(t.Constraints[:cap(t.Constraints)])
	*t = Table{Cols: t.Cols[:0], Rows: rows[:0], Constraints: t.Constraints[:0]}
}

// snapshot copies c for transaction rollback into a catalog, tables and rows
// taken from the pools. Tables are copied in name order, so what a snapshot
// takes does not depend on map order; the other objects are copied as they
// are, sharing their immutable parts.
func (e *Engine) snapshot(c *Catalog) *Catalog {
	s := e.takeCatalog()
	for _, n := range c.tableNames() {
		s.Tables[n] = e.cloneTable(c.Tables[n])
	}
	for n, v := range c.Views {
		vc := *v
		vc.MatRows = append([][]Value(nil), v.MatRows...)
		s.Views[n] = &vc
	}
	for n, ix := range c.Indexes {
		ic := *ix
		ic.Cols = append([]string(nil), ix.Cols...)
		s.Indexes[n] = &ic
	}
	for n, tr := range c.Triggers {
		tc := *tr
		s.Triggers[n] = &tc
	}
	for n, r := range c.Rules {
		rc := *r
		s.Rules[n] = &rc
	}
	for n, sq := range c.Sequences {
		sc := *sq
		s.Sequences[n] = &sc
	}
	for n, f := range c.Functions {
		fc := *f
		s.Functions[n] = &fc
	}
	for n, p := range c.Procedures {
		pc := *p
		s.Procedures[n] = &pc
	}
	for n, d := range c.Domains {
		dc := *d
		s.Domains[n] = &dc
	}
	for n, en := range c.Enums {
		ec := *en
		ec.Values = append([]string(nil), en.Values...)
		s.Enums[n] = &ec
	}
	for n, r := range c.Roles {
		rc := *r
		rc.Privs = map[string]map[string]bool{}
		for t, ps := range r.Privs {
			m := map[string]bool{}
			for k, v := range ps {
				m[k] = v
			}
			rc.Privs[t] = m
		}
		s.Roles[n] = &rc
	}
	for n := range c.Schemas {
		s.Schemas[n] = true
	}
	for n := range c.Extensions {
		s.Extensions[n] = true
	}
	for n := range c.Databases {
		s.Databases[n] = true
	}
	for k, v := range c.Comments {
		s.Comments[k] = v
	}
	return s
}

// cloneTable deep-copies t: a snapshot must survive later writes, which
// may change a row in place (ALTER TABLE). Its Rows array is capped at its
// length, as make's.
//
//lego:hotpath
func (e *Engine) cloneTable(t *Table) *Table {
	c := e.takeTable()
	cols, rows, cons := c.Cols, c.Rows, c.Constraints
	*c = *t
	c.Cols = refill(cols, t.Cols)
	c.Constraints = refill(cons, t.Constraints)
	n := len(t.Rows)
	if n > 0 && cap(rows) >= n {
		c.Rows = rows[:n:n]
	} else {
		c.Rows = make([][]Value, n)
	}
	for i, r := range t.Rows {
		c.Rows[i] = e.copyRow(r)
	}
	return c
}

// refill returns src's elements in dst's array, or nil when src is empty,
// as append(nil, src...) would.
func refill[T any](dst, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(dst[:0], src...)
}
