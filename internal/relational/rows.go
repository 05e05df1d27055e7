package relational

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// This file is the pull side of the executor. Every SELECT opens as one walk
// — filter, then projection, ending with the LIMIT — over one of three
// sources:
//
//   - table slots: a full scan, in slot (insertion) order;
//   - index candidates: the ascending slot list an index access (chooseIndex:
//     an equality, a literal IN list or a key range on an indexed column)
//     yields at open;
//   - a relation a blocking operator built at open: GROUP BY and aggregates,
//     ORDER BY (or a SELECT without FROM, or EXPLAIN's plan).
//
// Rows is the walk handed to the caller a chunk at a time; Query and ExecStmt
// drain it, and a blocking operator is fed its input by the same walk,
// drained.
//
// Names resolve at open (planFrom), and no expression the walk evaluates can
// fail on a row, so a walk that opened runs to its end: only a blocking
// operator, which reads its whole input at open, can fail after planning.

// Chunk is a column-major block of result rows in buffers the caller owns:
// Rows.Next fills Cols[c][:N] and reuses whatever capacity the vectors have.
type Chunk struct {
	Cols [][]Value
	N    int
}

// Rows is a resumable iterator over one SELECT's result. It is not safe for
// concurrent use. A walk over a table holds no lock and no scratch memory
// between two calls of Next, only the slot (or candidate) it stopped at: each
// call takes the database's read lock and resumes there. Tables are
// append-only, so a slot holds the same row for good; a table walk passes
// over the slots at or past the table's length at open, and an index walk
// reads only its candidates at open. Whatever is inserted between two calls,
// no row is returned twice, none that existed at open is skipped, and no row
// inserted after open appears.
type Rows struct {
	w     *walk
	bound int // Left's answer, as of open or the last Next
	done  bool
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.w.names }

// Left is an upper bound on the rows Next has still to return: the walk's
// unvisited candidates (index candidates, table slots below the length at
// open, or held rows), capped by the LIMIT left. It is taken at open and
// after every Next; inserts in between add no candidates.
func (r *Rows) Left() int { return r.bound }

// Held is the number of rows a blocking operator built at open and the
// iterator has not returned yet: 0 for a walk over a table, and for any walk
// once it is exhausted or closed.
func (r *Rows) Held() int {
	if r.done || r.w.src.rel == nil {
		return 0
	}
	return r.w.src.rel.n - r.w.from
}

// Close ends the iteration and releases what it holds. A walk over a table
// simply never resumes.
func (r *Rows) Close() {
	r.done = true
	r.bound = 0
	r.w.src.rel = nil
}

// Next fills ch, which must have one vector per result column, with the next
// rows of the result, at most most of them (most <= 0: all that are left), and
// reports whether they were the last: done is exact, so a consumer never has
// to ask again to learn that nothing follows, and only an empty result's one
// chunk is empty.
func (r *Rows) Next(ch *Chunk, most int) (done bool) {
	ch.N = 0
	if r.done {
		return true
	}
	if most <= 0 {
		most = math.MaxInt
	}
	w := r.w
	if w.src.t != nil {
		w.db.mu.RLock()
		defer w.db.mu.RUnlock()
	}
	c := getVctx()
	defer c.release()
	w.fill(c, ch, most)
	if w.done {
		r.Close()
	} else {
		r.bound = w.remaining()
	}
	return r.done
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
			w = db.heldWalk(rowsRel(res), res.Columns, -1)
		}
	case *SelectStmt:
		w, err = db.openSelect(s)
	}
	if err != nil {
		return nil, err
	}
	return &Rows{w: w, bound: w.remaining()}, nil
}

// source is where a walk's rows come from: a table's slots (cands nil), the
// candidate slots an index access yielded, or a relation (t nil).
type source struct {
	t     *Table
	cands []int // ascending
	high  int   // a table walk passes over the slots >= high: the length at open
	rel   *vecRel
}

func (s *source) vecs() [][]Value {
	if s.t == nil {
		return s.rel.vecs
	}
	return s.t.cols
}

// bounds locates the candidates still to visit, [pos, end), resuming at the
// first whose vector position (slot, or relation row) is not below from. The
// caller holds the database lock.
func (s *source) bounds(from int) (pos, end int) {
	switch {
	case s.t == nil:
		return from, s.rel.n
	case s.cands != nil:
		return sort.SearchInts(s.cands, from), len(s.cands)
	}
	return from, s.high
}

// rows appends to sel the vector positions of the candidates in [lo, hi).
func (s *source) rows(sel []int, lo, hi int) []int {
	if s.cands != nil {
		return append(sel, s.cands[lo:hi]...)
	}
	for r := lo; r < hi; r++ {
		sel = append(sel, r)
	}
	return sel
}

// walk is the resumable state of one SELECT. Everything in it is either
// immutable (the source's lists, the compiled expressions) or a plain number.
type walk struct {
	db     *Database
	src    source
	cols   []colBinding // the source's columns, what the expressions read
	names  []string
	filter vexpr   // nil: every row passes
	proj   []vexpr // a nil entry projects nothing (drain only)

	from int // resume at the first candidate whose vector position is >= from
	left int // LIMIT rows still to return; < 0: no limit
	done bool
}

// scanWalk opens a walk over the FROM table: its index access's candidates if
// the plan takes one, its slots otherwise, filtered by what sp's scan
// evaluates. cols are the table's bindings.
func (db *Database) scanWalk(sp *scanSpec, cols []colBinding) *walk {
	w := &walk{db: db, cols: cols, left: -1,
		src: source{t: sp.t, cands: sp.slots(), high: sp.t.Len()}}
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
// they are, named names, cut by the LIMIT.
func (db *Database) heldWalk(rel *vecRel, names []string, limit int) *walk {
	w := &walk{db: db, src: source{rel: rel}, names: names, left: limit,
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
// filter only, for one more row, so that done is exact. The caller holds the
// database lock.
func (w *walk) fill(c *vctx, ch *Chunk, most int) {
	need := most
	if w.left >= 0 {
		need = min(need, w.left)
	}
	if need == 0 { // LIMIT met (or LIMIT 0): nothing is examined
		w.done = true
		return
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
		return min(max(min(need, vecChunk)*scanned/passed, minScanStep), vecChunk)
	}
	step := nextStep()
	for pos < end {
		hi := min(pos+step, end)
		sel = w.src.rows(sel[:0], pos, hi)
		if w.src.t != nil {
			w.db.chunks.Add(1)
		}
		if w.filter != nil && len(sel) > 0 {
			wrote = max(wrote, len(sel))
			w.filter.eval(c, batch, sel, vals)
			k := 0
			for i, r := range sel {
				if b, ok := vals[i].Truthy(); ok && b {
					sel[k] = r
					k++
				}
			}
			sel = sel[:k]
		}
		take := min(len(sel), need)
		if take > 0 {
			// Room for the rest of the rows wanted too, at this step's
			// rate, so a drain sizes its vectors about once.
			room := take + min(need-take, take*(end-hi)/(hi-pos))
			for i, comp := range w.proj {
				if comp == nil {
					continue
				}
				ch.Cols[i] = slices.Grow(ch.Cols[i][:ch.N], room)[:ch.N+take]
				comp.eval(c, batch, sel[:take], ch.Cols[i][ch.N:])
			}
		}
		ch.N += take
		need -= take
		if w.left > 0 {
			if w.left -= take; w.left == 0 {
				w.done = true
				return
			}
		}
		if take < len(sel) {
			w.from = sel[take]
			return
		}
		scanned += hi - pos
		passed += len(sel)
		pos = hi
		if need == 0 {
			step = minScanStep
		} else {
			step = nextStep()
		}
	}
	w.done = true
}

// remaining is Rows.Left's bound for a walk that is not done. The caller
// holds the database lock.
func (w *walk) remaining() int {
	pos, end := w.src.bounds(w.from)
	n := end - pos
	if w.left >= 0 {
		n = min(n, w.left)
	}
	return n
}

// drain runs the walk to its end and returns what it projects, column i
// from proj[i] (nil for a nil entry). The caller holds the database lock.
func (w *walk) drain(c *vctx) *vecRel {
	ch := Chunk{Cols: make([][]Value, len(w.proj))}
	for i, comp := range w.proj {
		if comp != nil {
			ch.Cols[i] = emptyVec
		}
	}
	w.fill(c, &ch, math.MaxInt)
	return &vecRel{vecs: ch.Cols, n: ch.N}
}

// rel returns the walk's rows as a relation over its source's columns, only
// the referenced ones materialised. A relation, or a whole unfiltered table,
// comes back as it is: the table's storage vectors aliased, zero copies
// (callers only read them, and only under the database lock).
func (w *walk) rel(c *vctx, ref []bool) *vecRel {
	if w.filter == nil {
		if w.src.rel != nil {
			return w.src.rel
		}
		if t := w.src.t; w.src.cands == nil {
			out := &vecRel{cols: w.cols, n: w.src.high, vecs: make([][]Value, len(t.cols))}
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
			return out
		}
	}
	w.proj = make([]vexpr, len(ref))
	for i, r := range ref {
		if r {
			w.proj[i] = &vCol{ord: i}
		}
	}
	out := w.drain(c)
	out.cols = w.cols
	return out
}

// result drains the walk into a row-major Result. The caller holds the
// database lock throughout.
func (w *walk) result() *Result {
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
		w.fill(c, &ch, vecChunk)
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
	return res
}

// explainSelect renders the plan the executor opens for a SELECT, read from
// the same fromPlan: where its walk reads its rows (streamed from the table,
// or held by an operator that builds them at open), the operators above it,
// the filter its scan evaluates and the index it reads through.
func (db *Database) explainSelect(s *SelectStmt) (*Result, error) {
	var fp fromPlan
	if err := db.planFrom(s, &fp); err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	depth := 0
	emit := func(format string, args ...any) {
		res.Rows = append(res.Rows, Row{TextValue(strings.Repeat("  ", depth) + fmt.Sprintf(format, args...))})
	}
	sp := &fp.scan
	if blocking(s, fp.items) || sp.t == nil {
		emit("rows held at open")
	} else {
		emit("rows streamed from %s", sp.t.schema.Name)
	}
	if s.Limit >= 0 {
		emit("limit %d", s.Limit)
		depth++
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, oi := range s.OrderBy {
			keys[i] = oi.Expr.String()
			if oi.Desc {
				keys[i] += " DESC"
			}
		}
		emit("sort by %s", strings.Join(keys, ", "))
		depth++
	}
	if grouped(s, fp.items) {
		if len(s.GroupBy) > 0 {
			keys := make([]string, len(s.GroupBy))
			for i, g := range s.GroupBy {
				keys[i] = g.String()
			}
			emit("aggregate group by %s", strings.Join(keys, ", "))
		} else {
			emit("aggregate (single group)")
		}
		depth++
	}
	if sp.t == nil {
		if sp.filter != nil {
			emit("filter %s", sp.filter)
			depth++
		}
		emit("values (no FROM)")
		return res, nil
	}
	line := "seq scan "
	if sp.acc.ix != nil {
		line = sp.acc.describe(sp.t) + " "
	}
	line += sp.t.schema.Name
	if sp.ref.Alias != "" {
		line += " as " + sp.ref.Alias
	}
	if sp.filter != nil {
		line += " filter " + sp.filter.String()
	}
	emit("%s", line)
	return res, nil
}

// rowsRel turns row-major rows into a relation (EXPLAIN's result, on its way
// to a walk).
func rowsRel(res *Result) *vecRel {
	out := &vecRel{vecs: make([][]Value, len(res.Columns)), n: len(res.Rows)}
	for c := range out.vecs {
		out.vecs[c] = make([]Value, len(res.Rows))
		for r, row := range res.Rows {
			out.vecs[c][r] = row[c]
		}
	}
	return out
}
