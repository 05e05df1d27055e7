package relational

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the batched (vectorized) SELECT executor's operators. It
// mirrors the row-at-a-time interpreter in exec.go operator for operator —
// same pushdown, same join dispatch, same group semantics, same output order —
// but moves data in column vectors of up to vecChunk rows per call. exec.go's
// execSelectArmRows is retained as the oracle this engine is property-tested
// against: for any statement, both produce equal Results, or both fail.

// vecRel is an intermediate relation in columnar form: one value vector per
// binding. A nil vector marks a column no expression in the statement
// references; such columns are carried as bindings (for name resolution)
// but never materialised.
type vecRel struct {
	cols []colBinding
	vecs [][]Value
	n    int
}

// newWalk opens the walk over s's FROM rows, unprojected: one table's slots
// or index lookup, or the relation its joins build here (each table's walk
// drained into its side), or one empty row for a SELECT without FROM.
func (db *Database) newWalk(s *SelectStmt, fp *fromPlan) (*walk, error) {
	switch len(fp.specs) {
	case 0:
		return db.relWalk(&vecRel{n: 1}, fp.filter), nil
	case 1:
		return db.scanWalk(&fp.specs[0], fp.allCols), nil
	}
	c := getVctx()
	defer c.release()
	ref := referencedOrdinals(s, fp.items, fp.allCols)
	rels := make([]*vecRel, len(fp.specs))
	base := 0
	for i := range fp.specs {
		nc := len(fp.specs[i].t.schema.Columns)
		var err error
		if rels[i], err = db.scanWalk(&fp.specs[i], fp.allCols[base:base+nc]).rel(c, ref[base:base+nc]); err != nil {
			return nil, err
		}
		base += nc
	}

	cur := rels[0]
	for i := 1; i < len(s.From); i++ {
		cur = crossJoinVec(cur, rels[i])
	}
	for ji, jc := range s.Joins {
		right := rels[len(s.From)+ji]
		var err error
		switch jc.Kind {
		case "CROSS":
			cur = crossJoinVec(cur, right)
		case "INNER":
			cur, err = innerJoinVec(c, cur, right, jc.On)
		case "LEFT":
			cur, err = nestedJoinVec(c, cur, right, jc.On, true)
		default:
			err = fmt.Errorf("sql: unsupported join kind %s", jc.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return db.relWalk(cur, fp.filter), nil
}

// referencedOrdinals marks every source column the statement can read:
// select items (post star expansion, so aggregate arguments are included),
// WHERE, join ON conditions, GROUP BY, HAVING and ORDER BY. Unmarked
// columns are never materialised. Unresolvable references are ignored here;
// evaluation reports them (or not, on empty input) exactly as the
// interpreter does.
func referencedOrdinals(s *SelectStmt, items []SelectItem, allCols []colBinding) []bool {
	ref := make([]bool, len(allCols))
	env := &evalEnv{cols: allCols}
	mark := func(e Expr) {
		for _, cr := range collectColRefs(e) {
			if ord, err := env.resolve(cr); err == nil {
				ref[ord] = true
				continue
			}
			// Joint resolution failed (ambiguous or unknown). Join-key
			// resolution happens per side (equiKeys), which can succeed
			// where the joint scope is ambiguous, so over-mark every
			// column the name could mean; over-marking only costs
			// materialisation, never correctness.
			name := strings.ToLower(cr.Name)
			tbl := strings.ToLower(cr.Table)
			for i, cb := range allCols {
				if cb.name == name && (tbl == "" || cb.table == tbl) {
					ref[i] = true
				}
			}
		}
	}
	for _, it := range items {
		mark(it.Expr)
	}
	mark(s.Where)
	for _, jc := range s.Joins {
		mark(jc.On)
	}
	for _, ge := range s.GroupBy {
		mark(ge)
	}
	mark(s.Having)
	for _, oi := range s.OrderBy {
		mark(oi.Expr)
	}
	return ref
}

// emptyVec is the shared zero-row column vector: non-nil so it reads as a
// referenced (just empty) column, never as an unreferenced one. Nothing
// writes to it: its capacity is 0, so an append copies.
var emptyVec = make([]Value, 0)

// gatherVec copies the listed rows of vec into a vector of exactly that
// size (non-nil even when empty: nil means "unreferenced" downstream).
func gatherVec(vec []Value, rows []int) []Value {
	g := make([]Value, len(rows))
	for k, r := range rows {
		g[k] = vec[r]
	}
	return g
}

func joinedVecRel(l, r *vecRel) *vecRel {
	return &vecRel{
		cols: append(append([]colBinding(nil), l.cols...), r.cols...),
		vecs: make([][]Value, len(l.vecs)+len(r.vecs)),
	}
}

// gatherPairs materialises a join result from pair index lists: output row k
// combines left row li[k] with right row ri[k] (ri[k] == -1 null-extends the
// right side, for LEFT JOIN). Only referenced columns are gathered.
func gatherPairs(out *vecRel, l, r *vecRel, li, ri []int) {
	out.n = len(li)
	for ci, vec := range l.vecs {
		if vec == nil {
			continue
		}
		g := make([]Value, len(li))
		for k, i := range li {
			g[k] = vec[i]
		}
		out.vecs[ci] = g
	}
	off := len(l.vecs)
	for ci, vec := range r.vecs {
		if vec == nil {
			continue
		}
		g := make([]Value, len(ri))
		for k, j := range ri {
			if j < 0 {
				g[k] = NullValue()
			} else {
				g[k] = vec[j]
			}
		}
		out.vecs[off+ci] = g
	}
}

func crossJoinVec(l, r *vecRel) *vecRel {
	out := joinedVecRel(l, r)
	n := l.n * r.n
	li := make([]int, 0, n)
	ri := make([]int, 0, n)
	for i := 0; i < l.n; i++ {
		for j := 0; j < r.n; j++ {
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	gatherPairs(out, l, r, li, ri)
	return out
}

// innerJoinVec dispatches exactly like the interpreter: hash join when the
// ON clause is a conjunction of column equalities, nested loop otherwise.
func innerJoinVec(c *vctx, l, r *vecRel, on Expr) (*vecRel, error) {
	lk, rk := equiKeys(on, l.cols, r.cols)
	if lk == nil {
		return nestedJoinVec(c, l, r, on, false)
	}
	out := joinedVecRel(l, r)
	// Build side: right relation, rows with any NULL key skipped. Keys use
	// the same byte layout as encodeKey, built without per-row allocations
	// (probe-side lookups via map[string(buf)] do not allocate).
	ht := make(map[string][]int, r.n)
	var kbuf []byte
	for j := 0; j < r.n; j++ {
		kbuf = kbuf[:0]
		null := false
		for _, ord := range rk {
			v := r.vecs[ord][j]
			if v.Null {
				null = true
				break
			}
			kbuf = appendKeyValue(kbuf, v)
		}
		if null {
			continue
		}
		ht[string(kbuf)] = append(ht[string(kbuf)], j)
	}
	var li, ri []int
	for i := 0; i < l.n; i++ {
		kbuf = kbuf[:0]
		null := false
		for _, ord := range lk {
			v := l.vecs[ord][i]
			if v.Null {
				null = true
				break
			}
			kbuf = appendKeyValue(kbuf, v)
		}
		if null {
			continue
		}
		for _, j := range ht[string(kbuf)] {
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	gatherPairs(out, l, r, li, ri)
	return out, nil
}

// nestedJoinVec evaluates an arbitrary ON condition over left×right pairs in
// chunks, gathering only the columns the condition references. With left
// set, unmatched left rows are null-extended immediately after their
// position, matching the interpreter's LEFT JOIN output order.
func nestedJoinVec(c *vctx, l, r *vecRel, on Expr, left bool) (*vecRel, error) {
	out := joinedVecRel(l, r)
	comp := compileExpr(on, out.cols)
	onRef := make([]bool, len(out.cols))
	env := &evalEnv{cols: out.cols}
	for _, cr := range collectColRefs(on) {
		if ord, err := env.resolve(cr); err == nil {
			onRef[ord] = true
		}
	}
	scratch := make([][]Value, len(out.cols))
	for ci := range scratch {
		if onRef[ci] {
			scratch[ci] = c.getVals()
			defer c.putVals(scratch[ci])
		}
	}
	batch := &vbatch{vecs: scratch}
	outv := c.getVals()
	defer c.putVals(outv)
	sel := c.getSel()
	defer c.putSel(sel)

	var li, ri []int
	nl := len(l.vecs)
	evalChunk := func(pli, pri []int) error {
		m := len(pli)
		for ci := 0; ci < nl; ci++ {
			if scratch[ci] == nil {
				continue
			}
			src := l.vecs[ci]
			for k := 0; k < m; k++ {
				scratch[ci][k] = src[pli[k]]
			}
		}
		for ci := nl; ci < len(scratch); ci++ {
			if scratch[ci] == nil {
				continue
			}
			src := r.vecs[ci-nl]
			for k := 0; k < m; k++ {
				scratch[ci][k] = src[pri[k]]
			}
		}
		sel = sel[:0]
		for k := 0; k < m; k++ {
			sel = append(sel, k)
		}
		if err := comp.eval(c, batch, sel, outv); err != nil {
			return err
		}
		for k := 0; k < m; k++ {
			if b, ok := outv[k].Truthy(); ok && b {
				li = append(li, pli[k])
				ri = append(ri, pri[k])
			}
		}
		return nil
	}

	pli := make([]int, 0, vecChunk)
	pri := make([]int, 0, vecChunk)
	if left {
		for i := 0; i < l.n; i++ {
			before := len(li)
			for base := 0; base < r.n; base += vecChunk {
				end := min(base+vecChunk, r.n)
				pli = pli[:0]
				pri = pri[:0]
				for j := base; j < end; j++ {
					pli = append(pli, i)
					pri = append(pri, j)
				}
				if err := evalChunk(pli, pri); err != nil {
					return nil, err
				}
			}
			if len(li) == before {
				li = append(li, i)
				ri = append(ri, -1)
			}
		}
	} else {
		for i := 0; i < l.n; i++ {
			for j := 0; j < r.n; j++ {
				pli = append(pli, i)
				pri = append(pri, j)
				if len(pli) == vecChunk {
					if err := evalChunk(pli, pri); err != nil {
						return nil, err
					}
					pli = pli[:0]
					pri = pri[:0]
				}
			}
		}
		if len(pli) > 0 {
			if err := evalChunk(pli, pri); err != nil {
				return nil, err
			}
		}
	}
	gatherPairs(out, l, r, li, ri)
	return out, nil
}

// sortVec is ORDER BY over an arm that does not group (and DISTINCT's input,
// with no ORDER BY): w, a walk over the arm's filtered rows, drained, projects
// every item and every key that is not an item's alias or ordinal, and the
// rows are sorted by the interpreter's key semantics (aliases, ordinals,
// stable sort). It returns the items' columns.
func sortVec(c *vctx, s *SelectStmt, items []SelectItem, w *walk) (*vecRel, error) {
	exprs := items
	keys := make([]int, len(s.OrderBy))
	aliasOf := aliasMap(items)
	badOrdinal := 0
	for i, oi := range s.OrderBy {
		if cr, ok := oi.Expr.(*ColRef); ok && cr.Table == "" {
			if ord, hit := aliasOf[strings.ToLower(cr.Name)]; hit {
				keys[i] = ord
				continue
			}
		}
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			keys[i] = int(lit.Val.Int) - 1
			if keys[i] < 0 || keys[i] >= len(items) {
				badOrdinal = int(lit.Val.Int)
			}
			continue
		}
		keys[i] = len(exprs)
		exprs = append(exprs[:len(exprs):len(exprs)], SelectItem{Expr: oi.Expr})
	}
	w.project(exprs)
	rel, err := w.drain(c)
	if err != nil {
		return nil, err
	}
	if badOrdinal != 0 && rel.n > 0 { // the interpreter checks it per row
		return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", badOrdinal)
	}
	return sortRel(rel, keys, s.OrderBy, len(items)), nil
}

// sortRel orders rel's rows stably by the columns keys (keys[i] in
// order[i]'s direction) and returns its first width columns in that order.
func sortRel(rel *vecRel, keys []int, order []OrderItem, width int) *vecRel {
	if len(keys) == 0 {
		rel.vecs = rel.vecs[:width]
		return rel
	}
	perm := make([]int, rel.n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		for k, key := range keys {
			c := Compare(rel.vecs[key][perm[i]], rel.vecs[key][perm[j]])
			if c == 0 {
				continue
			}
			if order[k].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return &vecRel{vecs: gatherCols(rel.vecs[:width], perm), n: rel.n}
}

// gatherCols gathers the listed rows of every vector.
func gatherCols(vecs [][]Value, rows []int) [][]Value {
	out := make([][]Value, len(vecs))
	for i, vec := range vecs {
		out[i] = gatherVec(vec, rows)
	}
	return out
}

// dedupe keeps the first of every set of equal rows: DISTINCT, and UNION at
// a plain-UNION boundary.
func dedupe(rel *vecRel) *vecRel {
	seen := make(map[string]bool, rel.n)
	var keep []int
	var kbuf []byte
	for r := 0; r < rel.n; r++ {
		kbuf = kbuf[:0]
		for _, vec := range rel.vecs {
			kbuf = appendKeyValue(kbuf, vec[r])
		}
		if !seen[string(kbuf)] {
			seen[string(kbuf)] = true
			keep = append(keep, r)
		}
	}
	if len(keep) == rel.n {
		return rel
	}
	return &vecRel{vecs: gatherCols(rel.vecs, keep), n: len(keep)}
}

// rowsRel turns row-major rows into a relation (the row oracle's and
// EXPLAIN's results, on their way to a walk).
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

// aggAcc streams one aggregate call for one group, mirroring
// computeAggregate: NULLs skipped, DISTINCT deduplicated by encoded key,
// SUM stays integral while every input is integral.
type aggAcc struct {
	n       int64
	best    Value
	hasBest bool
	fsum    float64
	isum    int64
	allInt  bool
	seen    map[string]bool
}

type vgroup struct {
	first int // source row ordinal of the group's first row; -1 when empty
	rows  int64
	accs  []aggAcc
}

// execGroupedVec implements GROUP BY / HAVING / aggregate projection with
// streaming accumulators: one pass over the source builds all groups, then
// per-group finalisation (HAVING, projection, ORDER BY) reuses the
// interpreter's scalar evaluator — group counts are small, rows are not.
func execGroupedVec(c *vctx, s *SelectStmt, items []SelectItem, src *vecRel) (*vecRel, error) {

	aggCalls := collectAggCalls(s, items)
	gbComps := make([]vexpr, len(s.GroupBy))
	for i, ge := range s.GroupBy {
		gbComps[i] = compileExpr(ge, src.cols)
	}
	argComps := make([]vexpr, len(aggCalls))
	for i, f := range aggCalls {
		if !f.Star {
			argComps[i] = compileExpr(f.Args[0], src.cols)
		}
	}

	newGroup := func(first int) *vgroup {
		g := &vgroup{first: first, accs: make([]aggAcc, len(aggCalls))}
		for i, f := range aggCalls {
			g.accs[i].allInt = true
			if f.Distinct {
				g.accs[i].seen = make(map[string]bool)
			}
		}
		return g
	}

	groups := make(map[string]*vgroup)
	var order []*vgroup
	var single *vgroup // the one group when there is no GROUP BY

	batch := &vbatch{vecs: src.vecs}
	gbufs := make([][]Value, len(gbComps))
	for i := range gbufs {
		gbufs[i] = c.getVals()
		defer c.putVals(gbufs[i])
	}
	abufs := make([][]Value, len(argComps))
	for i := range argComps {
		if argComps[i] != nil {
			abufs[i] = c.getVals()
			defer c.putVals(abufs[i])
		}
	}
	sel := c.getSel()
	defer c.putSel(sel)
	var kbuf []byte
	distinctKey := make([]Value, 1)

	for base := 0; base < src.n; base += vecChunk {
		end := min(base+vecChunk, src.n)
		sel = sel[:0]
		for r := base; r < end; r++ {
			sel = append(sel, r)
		}
		for i, comp := range gbComps {
			if err := comp.eval(c, batch, sel, gbufs[i]); err != nil {
				return nil, err
			}
		}
		for i, comp := range argComps {
			if comp == nil {
				continue
			}
			if err := comp.eval(c, batch, sel, abufs[i]); err != nil {
				return nil, err
			}
		}
		for j := 0; j < end-base; j++ {
			var g *vgroup
			if len(gbComps) == 0 {
				if single == nil {
					single = newGroup(base + j)
					order = append(order, single)
				}
				g = single
			} else {
				kbuf = kbuf[:0]
				for i := range gbComps {
					kbuf = appendKeyValue(kbuf, gbufs[i][j])
				}
				var ok bool
				g, ok = groups[string(kbuf)]
				if !ok {
					g = newGroup(base + j)
					groups[string(kbuf)] = g
					order = append(order, g)
				}
			}
			g.rows++
			for ai, f := range aggCalls {
				if f.Star {
					continue
				}
				v := abufs[ai][j]
				if v.Null {
					continue // aggregates skip NULLs
				}
				acc := &g.accs[ai]
				if f.Distinct {
					distinctKey[0] = v
					dk := encodeKey(distinctKey)
					if acc.seen[dk] {
						continue
					}
					acc.seen[dk] = true
				}
				acc.n++
				switch f.Name {
				case "COUNT":
				case "MIN", "MAX":
					if !acc.hasBest {
						acc.best = v
						acc.hasBest = true
					} else if cv := Compare(v, acc.best); (f.Name == "MIN" && cv < 0) || (f.Name == "MAX" && cv > 0) {
						acc.best = v
					}
				case "SUM", "AVG":
					fv, ok := v.AsFloat()
					if !ok {
						return nil, fmt.Errorf("sql: %s over non-numeric values", f.Name)
					}
					acc.fsum += fv
					if v.Kind == TypeInt {
						acc.isum += v.Int
					} else {
						acc.allInt = false
					}
				default:
					return nil, fmt.Errorf("sql: unknown aggregate %s", f.Name)
				}
			}
		}
	}
	// Empty input with no GROUP BY still yields one (empty) group, per SQL.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		order = append(order, newGroup(-1))
	}

	// The output: the items' columns, then the ORDER BY keys'.
	width := len(items)
	out := &vecRel{vecs: make([][]Value, width+len(s.OrderBy))}
	for i := range out.vecs {
		out.vecs[i] = make([]Value, 0, len(order))
	}
	keys := make([]int, len(s.OrderBy))
	for i := range keys {
		keys[i] = width + i
	}
	aliasOf := aliasMap(items)
	proj := make(Row, width)
	for _, g := range order {
		aggs := make(map[string]Value, len(aggCalls))
		for ai, f := range aggCalls {
			var v Value
			acc := &g.accs[ai]
			switch {
			case f.Star:
				v = IntValue(g.rows)
			case f.Name == "COUNT":
				v = IntValue(acc.n)
			case f.Name == "MIN" || f.Name == "MAX":
				if acc.hasBest {
					v = acc.best
				} else {
					v = NullValue()
				}
			case f.Name == "SUM":
				switch {
				case acc.n == 0:
					v = NullValue()
				case acc.allInt:
					v = IntValue(acc.isum)
				default:
					v = FloatValue(acc.fsum)
				}
			case f.Name == "AVG":
				if acc.n == 0 {
					v = NullValue()
				} else {
					v = FloatValue(acc.fsum / float64(acc.n))
				}
			}
			aggs[f.String()] = v
		}
		genv := &evalEnv{cols: src.cols, aggs: aggs}
		if g.first >= 0 {
			row := make(Row, len(src.cols))
			for ci, vec := range src.vecs {
				if vec != nil {
					row[ci] = vec[g.first]
				} else {
					row[ci] = NullValue() // unreferenced: never read by eval
				}
			}
			genv.row = row
		} else {
			genv.row = make(Row, len(src.cols)) // all NULLs
		}
		if s.Having != nil {
			v, err := eval(s.Having, genv)
			if err != nil {
				return nil, err
			}
			if b, ok := v.Truthy(); !ok || !b {
				continue
			}
		}
		for i, it := range items {
			v, err := eval(it.Expr, genv)
			if err != nil {
				return nil, err
			}
			proj[i] = v
		}
		for i, v := range proj {
			out.vecs[i] = append(out.vecs[i], v)
		}
		if len(s.OrderBy) > 0 {
			kr, err := orderKeys(s.OrderBy, genv, aliasOf, proj)
			if err != nil {
				return nil, err
			}
			for i, v := range kr {
				out.vecs[width+i] = append(out.vecs[width+i], v)
			}
		}
		out.n++
	}
	return sortRel(out, keys, s.OrderBy, width), nil
}
