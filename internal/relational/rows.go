package relational

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the pull side of the executor: a SELECT opens as a Rows
// iterator and every other way of reading one (Query, ExecStmt, INSERT ...
// SELECT, subqueries) is a drain of it.
//
// A plan streams when nothing in it has to see the whole input before the
// first row can leave: one table read by full scan, every WHERE conjunct
// pushed into that scan, no ORDER BY, GROUP BY, HAVING, aggregate, DISTINCT,
// join or set operation. Such a statement runs select -> filter -> project a
// chunk of table slots at a time, straight from the table's column vectors
// into the caller's buffers, and LIMIT/OFFSET stop the scan. Everything else
// (blocking operators, and index point lookups, whose candidate sets are
// small and come sorted by row ID) executes whole, and the iterator walks the
// materialised Result.
//
// Rows of a streaming plan are examined in slot order, one after the other:
// filter, then OFFSET, then projection, and the scan ends with the LIMIT. An
// expression error is reported when that walk reaches the row that raises it,
// never for a row the walk does not reach. The vectorised loop evaluates a
// chunk ahead of that walk, so when a chunk fails it is re-run a row at a
// time, which finds out whether the walk gets as far as the failing row.

// Chunk is a column-major block of result rows in buffers the caller owns:
// Rows.Next fills Cols[c][:N] and reuses whatever capacity the vectors have.
type Chunk struct {
	Cols [][]Value
	N    int
}

// Rows is a resumable iterator over one SELECT's result. It is not safe for
// concurrent use. A streaming Rows holds no lock, no scratch memory and no
// table position between two calls of Next: each call takes the database's
// read lock, resumes at the first row whose ID is not below the one it
// stopped at, and passes over rows whose ID is at or past the table's
// high-water mark at open. Whatever is inserted, deleted or compacted between
// two calls, no row is returned twice, no row that existed at open and still
// exists is skipped, and no row inserted after open appears; a row updated in
// between is read as it is when the scan reaches it.
type Rows struct {
	columns []string
	st      *stream // streaming plan; nil for a materialised one
	res     *Result // materialised plan: the rows not yet returned
	done    bool
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.columns }

// Streaming reports whether the plan streams from table storage (as opposed
// to iterating a result materialised at open).
func (r *Rows) Streaming() bool { return r.st != nil }

// Held is the number of materialised rows the iterator still holds: 0 for a
// streaming plan, and for any plan once it is exhausted or closed.
func (r *Rows) Held() int {
	if r.res == nil {
		return 0
	}
	return len(r.res.Rows)
}

// Close ends the iteration and releases what it holds. The scan of a
// streaming plan simply never resumes.
func (r *Rows) Close() {
	r.done = true
	r.res = nil
}

// Next fills ch, which must have one vector per result column, with the next
// rows of the result, at most most of them (most <= 0: all that are left), and
// reports whether they were the last: done is exact, so a consumer never has
// to ask again to learn that nothing follows. The last chunk may be empty (a
// row that was seen to follow can be deleted before the next call).
func (r *Rows) Next(ch *Chunk, most int) (done bool, err error) {
	ch.N = 0
	if r.done {
		return true, nil
	}
	if most <= 0 {
		most = math.MaxInt
	}
	if r.st == nil {
		rows := r.res.Rows
		n := min(most, len(rows))
		for c := range ch.Cols {
			ch.Cols[c] = slices.Grow(ch.Cols[c][:0], n)[:n]
			for j, row := range rows[:n] {
				ch.Cols[c][j] = row[c]
			}
		}
		ch.N = n
		r.res.Rows = rows[n:]
		if len(r.res.Rows) == 0 {
			r.Close()
		}
		return r.done, nil
	}
	db := r.st.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t := db.tables[r.st.table]; t != r.st.t {
		r.Close()
		return true, fmt.Errorf("relational: %s: table %s was dropped under an open cursor", db.name, r.st.t.schema.Name)
	}
	c := getVctx()
	defer c.release()
	if err := r.st.fill(c, ch, most); err != nil {
		r.Close()
		return true, err
	}
	if r.st.done {
		r.Close()
	}
	return r.done, nil
}

// QueryRows opens a SELECT (or EXPLAIN) as an iterator. A plan that streams
// does no work here beyond planning; one that does not is executed whole.
func (db *Database) QueryRows(sql string) (*Rows, error) {
	stmt, err := db.parseQuery(sql)
	if err != nil {
		return nil, err
	}
	if err := db.dialect.Check(stmt); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.openRows(stmt)
}

// openRows opens a read-only statement. The caller holds the database lock.
func (db *Database) openRows(stmt Statement) (*Rows, error) {
	var res *Result
	var st *stream
	var err error
	switch s := stmt.(type) {
	case *ExplainStmt:
		res, err = db.explainSelect(s.Query)
	case *SelectStmt:
		res, st, err = db.planSelect(s)
	}
	if err != nil {
		return nil, err
	}
	if st != nil {
		return &Rows{columns: st.names, st: st}, nil
	}
	return &Rows{columns: res.Columns, res: res, done: len(res.Rows) == 0}, nil
}

// streamPlan is what both engines need to run a statement that streams: the
// one table, the pushed filter (nil: none) and the projection.
type streamPlan struct {
	t      *Table
	cols   []colBinding
	filter Expr
	items  []SelectItem
}

// streamable decides whether s, one SELECT arm whose FROM clause resolved to
// fp, streams (see the file comment), and returns its plan if so.
func streamable(s *SelectStmt, fp *fromPlan) (p streamPlan, ok bool) {
	if len(fp.specs) != 1 || len(fp.residual) > 0 ||
		s.Distinct || len(s.OrderBy) > 0 || len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(fp.items) {
		return p, false
	}
	sp := fp.specs[0]
	p = streamPlan{t: sp.t, cols: fp.allCols, items: fp.items,
		filter: andAll(fp.pushed[strings.ToLower(sp.ref.Binding())])}
	_, _, indexed := indexableEquality(p.t, p.filter, &evalEnv{cols: p.cols})
	return p, !indexed
}

// stream is the resumable state of a streaming plan. Everything in it is
// either immutable (the compiled expressions) or a plain number.
type stream struct {
	db     *Database
	table  string // lower-cased name, to find the table again under the lock
	t      *Table
	names  []string
	filter vexpr // nil: every live row passes
	proj   []vexpr

	from int64 // resume at the first slot whose row ID is >= from
	high int64 // rows with an ID >= high were inserted after open
	skip int   // OFFSET rows still to pass over
	left int   // LIMIT rows still to return; < 0: no limit
	done bool
}

func (db *Database) newStream(s *SelectStmt, p *streamPlan) *stream {
	st := &stream{
		db:    db,
		table: strings.ToLower(p.t.schema.Name),
		t:     p.t,
		names: make([]string, len(p.items)),
		proj:  make([]vexpr, len(p.items)),
		high:  p.t.nextID + 1,
		skip:  s.Offset,
		left:  s.Limit,
	}
	if p.filter != nil {
		st.filter = compileExpr(p.filter, p.cols)
	}
	for i, it := range p.items {
		st.names[i] = itemName(it, i)
		st.proj[i] = compileExpr(it.Expr, p.cols)
	}
	return st
}

// minScanStep is the fewest slots one step of a streaming scan looks at: the
// width of a cursor's first page, so an unfiltered first page is one step.
const minScanStep = 64

// fill appends up to most result rows to ch, resuming the scan where the last
// call left it, and leaves st.from at the next row that passes the filter (or
// st.done set): when the page fills at the end of a step it looks ahead, the
// filter only, for one more row. The caller holds the database lock.
func (st *stream) fill(c *vctx, ch *Chunk, most int) error {
	need := most
	if st.left >= 0 {
		need = min(need, st.left)
	}
	if need == 0 { // LIMIT met (or LIMIT 0): nothing is examined
		st.done = true
		return nil
	}
	t := st.t
	// Row IDs ascend with the slots, so both ends of the scan are searches.
	end := len(t.ids)
	if end > 0 && t.ids[end-1] >= st.high {
		end = sort.Search(end, func(i int) bool { return t.ids[i] >= st.high })
	}
	pos := sort.Search(end, func(i int) bool { return t.ids[i] >= st.from })

	batch := &vbatch{vecs: t.cols}
	sel := c.getSel()
	defer func() { c.putSel(sel) }()
	vals := c.getVals()
	defer c.putVals(vals)

	// A step looks at as many slots as should yield the rows still wanted,
	// going by the share of slots that have passed so far.
	scanned, passed := 1, 1
	nextStep := func() int {
		want := min(need, vecChunk) + min(st.skip, vecChunk)
		return min(max(want*scanned/passed, minScanStep), vecChunk)
	}
	step := nextStep()
	rowwise := false // a step failed: walk a row at a time from there on
	for pos < end {
		hi := min(pos+step, end)
		sel = sel[:0]
		for r := pos; r < hi; r++ {
			if t.live[r] {
				sel = append(sel, r)
			}
		}
		st.db.chunks.Add(1)
		var err error
		if st.filter != nil && len(sel) > 0 {
			if err = st.filter.eval(c, batch, sel, vals); err == nil {
				k := 0
				for i, r := range sel {
					if b, ok := vals[i].Truthy(); ok && b {
						sel[k] = r
						k++
					}
				}
				sel = sel[:k]
			}
		}
		skip := min(st.skip, len(sel))
		take := min(len(sel)-skip, need)
		if err == nil && take > 0 {
			for i, comp := range st.proj {
				ch.Cols[i] = slices.Grow(ch.Cols[i][:ch.N], take)[:ch.N+take]
				if err = comp.eval(c, batch, sel[skip:skip+take], ch.Cols[i][ch.N:]); err != nil {
					break
				}
			}
		}
		if err != nil {
			if need == 0 {
				// Looking ahead only: the error belongs to the fetch whose
				// walk gets there, if one does.
				st.from = t.ids[pos]
				return nil
			}
			if !rowwise {
				rowwise, step = true, 1
				continue
			}
			return err
		}
		st.skip -= skip
		ch.N += take
		need -= take
		if st.left > 0 {
			if st.left -= take; st.left == 0 {
				st.done = true
				return nil
			}
		}
		if skip+take < len(sel) {
			st.from = t.ids[sel[skip+take]]
			return nil
		}
		scanned += hi - pos
		passed += len(sel)
		pos = hi
		switch {
		case rowwise:
		case need == 0:
			step = minScanStep
		default:
			step = nextStep()
		}
	}
	st.done = true
	return nil
}

// drain runs the scan to its end and returns the rows, row-major. The caller
// holds the database lock throughout.
func (st *stream) drain() (*Result, error) {
	c := getVctx()
	defer c.release()
	nc := len(st.proj)
	ch := Chunk{Cols: make([][]Value, nc)}
	for i := range ch.Cols {
		ch.Cols[i] = c.getVals()
		defer func() { c.putVals(ch.Cols[i]) }()
	}
	res := &Result{Columns: st.names}
	for !st.done {
		ch.N = 0
		if err := st.fill(c, &ch, vecChunk); err != nil {
			return nil, err
		}
		slab := make([]Value, ch.N*nc)
		res.Rows = slices.Grow(res.Rows, ch.N)
		for j := 0; j < ch.N; j++ {
			row := Row(slab[j*nc : (j+1)*nc : (j+1)*nc])
			for i := range row {
				row[i] = ch.Cols[i][j]
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}
