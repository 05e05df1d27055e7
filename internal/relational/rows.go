package relational

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the pull side of the executor. Every SELECT arm opens as one
// walk — filter, then OFFSET, then projection, ending with the LIMIT — over
// one of three sources:
//
//   - table slots: a full scan, in slot (row ID) order;
//   - index row IDs: the ascending candidate list an index access (chooseIndex:
//     an equality, a literal IN list or a key range on an indexed column)
//     yields at open;
//   - a relation a blocking operator built at open: a join, GROUP BY and
//     aggregates, ORDER BY, DISTINCT, UNION (or a SELECT without FROM).
//
// Rows is the walk handed to the caller a chunk at a time; Query, ExecStmt,
// INSERT ... SELECT and subqueries drain it, and a blocking operator is fed
// its input by the same walk, drained.
//
// An expression the walk evaluates errors only for a row the walk reaches,
// never for one it does not; a blocking operator evaluates its whole input.
// The walk evaluates a step of rows ahead of itself, so when a step fails it
// is re-run a row at a time, which finds out whether the walk gets as far as
// the failing row.

// Chunk is a column-major block of result rows in buffers the caller owns:
// Rows.Next fills Cols[c][:N] and reuses whatever capacity the vectors have.
type Chunk struct {
	Cols [][]Value
	N    int
}

// Rows is a resumable iterator over one SELECT's result. It is not safe for
// concurrent use. A walk over a table holds no lock, no scratch memory and no
// table position between two calls of Next: each call takes the database's
// read lock, resumes at the first row whose ID is not below the one it stopped
// at, and passes over rows whose ID is at or past the table's high-water mark
// at open (an index walk: rows not among the candidates at open). Whatever is
// inserted, deleted or compacted between two calls, no row is returned twice,
// no row that existed at open and still exists is skipped, and no row inserted
// after open appears; a row updated in between is read as it is when the walk
// reaches it (so an index walk passes over one updated out of its keys or
// range, and never sees one updated into them).
type Rows struct {
	w    *walk
	done bool
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.w.names }

// Held is the number of rows a blocking operator built at open and the
// iterator has not returned yet: 0 for a walk over a table, and for any walk
// once it is exhausted or closed.
func (r *Rows) Held() int {
	if r.done || r.w.src.rel == nil {
		return 0
	}
	return r.w.src.rel.n - int(r.w.from)
}

// Close ends the iteration and releases what it holds. A walk over a table
// simply never resumes.
func (r *Rows) Close() {
	r.done = true
	r.w.src.rel = nil
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
	w := r.w
	if t := w.src.t; t != nil {
		db := w.db
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.tables[w.src.table] != t {
			r.Close()
			return true, fmt.Errorf("relational: %s: table %s was dropped under an open cursor", db.name, t.schema.Name)
		}
	}
	c := getVctx()
	defer c.release()
	if err := w.fill(c, ch, most); err != nil {
		r.Close()
		return true, err
	}
	if w.done {
		r.Close()
	}
	return r.done, nil
}

// QueryRows opens a SELECT (or EXPLAIN) as an iterator. A walk over a table
// does no work here beyond planning; a blocking operator runs here, whole.
func (db *Database) QueryRows(sql string) (*Rows, error) {
	stmt, err := db.parseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.openRows(stmt)
}

// openRows opens a parsed SELECT or EXPLAIN as an iterator.
func (db *Database) openRows(stmt Statement) (*Rows, error) {
	if err := db.dialect.Check(stmt); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var w *walk
	var err error
	switch s := stmt.(type) {
	case *ExplainStmt:
		var res *Result
		if res, err = db.explainSelect(s.Query); err == nil {
			w = db.heldWalk(rowsRel(res), res.Columns, 0, -1)
		}
	case *SelectStmt:
		w, err = db.openSelect(s)
	}
	if err != nil {
		return nil, err
	}
	return &Rows{w: w}, nil
}

// source is where a walk's rows come from: a table's slots (ids nil), the
// candidate row IDs an index access yielded, or a relation (t nil).
type source struct {
	t     *Table
	table string  // t's lower-cased name, to find it again under the lock
	ids   []int64 // ascending
	high  int64   // a table walk passes over rows with an ID >= high
	rel   *vecRel
}

func (s *source) vecs() [][]Value {
	if s.t == nil {
		return s.rel.vecs
	}
	return s.t.cols
}

// bounds locates the candidates still to visit, [pos, end), resuming at the
// first whose key is not below from: row IDs for a table, positions for a
// relation. The caller holds the database lock.
func (s *source) bounds(from int64) (pos, end int) {
	switch {
	case s.t == nil:
		return int(from), s.rel.n
	case s.ids != nil:
		return sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= from }), len(s.ids)
	}
	// Row IDs ascend with the slots, so both ends of the scan are searches.
	ids := s.t.ids
	end = len(ids)
	if end > 0 && ids[end-1] >= s.high {
		end = sort.Search(end, func(i int) bool { return ids[i] >= s.high })
	}
	return sort.Search(end, func(i int) bool { return ids[i] >= from }), end
}

// rows appends to sel the vector positions of the candidates in [lo, hi)
// that still exist.
func (s *source) rows(sel []int, lo, hi int) []int {
	switch {
	case s.t == nil:
		for r := lo; r < hi; r++ {
			sel = append(sel, r)
		}
	case s.ids != nil:
		for _, id := range s.ids[lo:hi] {
			if r, ok := s.t.slots[id]; ok && s.t.live[r] {
				sel = append(sel, r)
			}
		}
	default:
		for r := lo; r < hi; r++ {
			if s.t.live[r] {
				sel = append(sel, r)
			}
		}
	}
	return sel
}

// key is the resume key of the row at vector position r.
func (s *source) key(r int) int64 {
	if s.t == nil {
		return int64(r)
	}
	return s.t.ids[r]
}

// walk is the resumable state of one SELECT arm. Everything in it is either
// immutable (the source's lists, the compiled expressions) or a plain number.
type walk struct {
	db     *Database
	src    source
	cols   []colBinding // the source's columns, what the expressions read
	names  []string
	filter vexpr   // nil: every row passes
	proj   []vexpr // a nil entry projects nothing (drain only)

	from int64 // resume at the first candidate whose key is >= from
	skip int   // OFFSET rows still to pass over
	left int   // LIMIT rows still to return; < 0: no limit
	done bool
}

// scanWalk opens a walk over one table reference: its index access's
// candidates if the plan takes one, its slots otherwise, filtered by what
// sp's scan evaluates.
// cols are the reference's bindings.
func (db *Database) scanWalk(sp *scanSpec, cols []colBinding) *walk {
	w := &walk{db: db, cols: cols, left: -1,
		src: source{t: sp.t, table: strings.ToLower(sp.t.schema.Name), ids: sp.rowIDs(), high: sp.t.nextID + 1}}
	if sp.filter != nil {
		w.filter = compileExpr(sp.filter, cols)
	}
	return w
}

// relWalk opens a walk over a relation, filtered (nil: not).
func (db *Database) relWalk(rel *vecRel, filter Expr) *walk {
	w := &walk{db: db, cols: rel.cols, left: -1, src: source{rel: rel}}
	if filter != nil {
		w.filter = compileExpr(filter, rel.cols)
	}
	return w
}

// heldWalk is the walk over a blocking operator's output: its columns as
// they are, named names, cut by OFFSET and LIMIT.
func (db *Database) heldWalk(rel *vecRel, names []string, offset, limit int) *walk {
	w := &walk{db: db, src: source{rel: rel}, names: names, skip: offset, left: limit,
		proj: make([]vexpr, len(names))}
	for i := range w.proj {
		w.proj[i] = &vCol{ord: i}
	}
	return w
}

// project sets the walk's projection.
func (w *walk) project(items []SelectItem) {
	w.names = itemNames(items)
	w.proj = make([]vexpr, len(items))
	for i, it := range items {
		w.proj[i] = compileExpr(it.Expr, w.cols)
	}
}

// minScanStep is the fewest candidates one step of a walk looks at: the width
// of a cursor's first page, so an unfiltered first page is one step.
const minScanStep = 64

// fill appends up to most result rows to ch, resuming the walk where the last
// call left it, and leaves w.from at the next row that passes the filter (or
// w.done set): when the page fills at the end of a step it looks ahead, the
// filter only, for one more row. The caller holds the database lock.
func (w *walk) fill(c *vctx, ch *Chunk, most int) error {
	need := most
	if w.left >= 0 {
		need = min(need, w.left)
	}
	if need == 0 { // LIMIT met (or LIMIT 0): nothing is examined
		w.done = true
		return nil
	}
	pos, end := w.src.bounds(w.from)
	batch := &vbatch{vecs: w.src.vecs()}
	sel := c.getSel()
	defer func() { c.putSel(sel) }()
	vals, wrote := c.getVals(), 0
	defer func() { c.putVals(vals[:wrote]) }()

	// A step looks at as many candidates as should yield the rows still
	// wanted, going by the share of candidates that have passed so far.
	scanned, passed := 1, 1
	nextStep := func() int {
		want := min(need, vecChunk) + min(w.skip, vecChunk)
		return min(max(want*scanned/passed, minScanStep), vecChunk)
	}
	step := nextStep()
	rowwise := false // a step failed: walk a row at a time from there on
	for pos < end {
		hi := min(pos+step, end)
		sel = w.src.rows(sel[:0], pos, hi)
		if w.src.t != nil {
			w.db.chunks.Add(1)
		}
		var err error
		if w.filter != nil && len(sel) > 0 {
			wrote = max(wrote, len(sel))
			if err = w.filter.eval(c, batch, sel, vals); err == nil {
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
		skip := min(w.skip, len(sel))
		take := min(len(sel)-skip, need)
		if err == nil && take > 0 {
			// Room for the rest of the rows wanted too, at this step's
			// rate, so a drain sizes its vectors about once.
			room := take + min(need-take, take*(end-hi)/(hi-pos))
			for i, comp := range w.proj {
				if comp == nil {
					continue
				}
				ch.Cols[i] = slices.Grow(ch.Cols[i][:ch.N], room)[:ch.N+take]
				if err = comp.eval(c, batch, sel[skip:skip+take], ch.Cols[i][ch.N:]); err != nil {
					break
				}
			}
		}
		if err != nil {
			if need == 0 {
				// Looking ahead only (so the filter failed, on a step with
				// rows in it): the error belongs to the fetch whose walk gets
				// there, if one does.
				w.from = w.src.key(sel[0])
				return nil
			}
			if !rowwise {
				rowwise, step = true, 1
				continue
			}
			return err
		}
		w.skip -= skip
		ch.N += take
		need -= take
		if w.left > 0 {
			if w.left -= take; w.left == 0 {
				w.done = true
				return nil
			}
		}
		if skip+take < len(sel) {
			w.from = w.src.key(sel[skip+take])
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
	w.done = true
	return nil
}

// drain runs the walk to its end and returns what it projects, column i
// from proj[i] (nil for a nil entry). The caller holds the database lock.
func (w *walk) drain(c *vctx) (*vecRel, error) {
	ch := Chunk{Cols: make([][]Value, len(w.proj))}
	for i, comp := range w.proj {
		if comp != nil {
			ch.Cols[i] = emptyVec
		}
	}
	if err := w.fill(c, &ch, math.MaxInt); err != nil {
		return nil, err
	}
	return &vecRel{vecs: ch.Cols, n: ch.N}, nil
}

// rel returns the walk's rows as a relation over its source's columns, only
// the referenced ones materialised. A relation, or an unfiltered table with
// no tombstones, comes back as it is: the table's storage vectors aliased,
// zero copies (callers only read them, and only under the database lock).
func (w *walk) rel(c *vctx, ref []bool) (*vecRel, error) {
	if w.filter == nil {
		if w.src.rel != nil {
			return w.src.rel, nil
		}
		if t := w.src.t; w.src.ids == nil && t.dead == 0 {
			out := &vecRel{cols: w.cols, n: len(t.ids), vecs: make([][]Value, len(t.cols))}
			for i, vec := range t.cols {
				if ref[i] {
					out.vecs[i] = vec
					if vec == nil {
						// A never-inserted table's nil storage must
						// still read as referenced.
						out.vecs[i] = emptyVec
					}
				}
			}
			return out, nil
		}
	}
	w.proj = make([]vexpr, len(ref))
	for i, r := range ref {
		if r {
			w.proj[i] = &vCol{ord: i}
		}
	}
	out, err := w.drain(c)
	if err != nil {
		return nil, err
	}
	out.cols = w.cols
	return out, nil
}

// result drains the walk into a row-major Result. The caller holds the
// database lock throughout.
func (w *walk) result() (*Result, error) {
	c := getVctx()
	defer c.release()
	nc := len(w.proj)
	ch := Chunk{Cols: make([][]Value, nc)}
	for i := range ch.Cols {
		ch.Cols[i] = c.getVals()
		defer func() { c.putVals(ch.Cols[i][:vecChunk]) }()
	}
	res := &Result{Columns: w.names}
	for !w.done {
		ch.N = 0
		if err := w.fill(c, &ch, vecChunk); err != nil {
			return nil, err
		}
		if ch.N == 0 {
			continue
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
