package relational

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the batched (vectorized) SELECT executor. It mirrors the
// row-at-a-time interpreter in exec.go operator for operator — same
// pushdown, same join dispatch, same group semantics, same output order —
// but moves data in column vectors of up to vecChunk rows per call.
// exec.go's execSelectArmRows is retained as the oracle this engine is
// property-tested against: for any statement, both produce equal Results,
// or both fail.

// vecRel is an intermediate relation in columnar form: one value vector per
// binding. A nil vector marks a column no expression in the statement
// references; such columns are carried as bindings (for name resolution)
// but never materialised.
type vecRel struct {
	cols  []colBinding
	names []string
	vecs  [][]Value
	n     int
}

// execSelectArmVec runs, with the batched executor, one SELECT arm that does
// not stream; fp is its resolved FROM clause (zero: none). DISTINCT/OFFSET/LIMIT
// are applied by the caller (planSelectArm).
func (db *Database) execSelectArmVec(s *SelectStmt, fp *fromPlan) (*Result, error) {
	c := getVctx()
	defer c.release()

	var src *vecRel
	var residual []Expr
	var items []SelectItem
	if len(fp.specs) == 0 {
		// SELECT without FROM: one empty row, all conjuncts residual.
		src = &vecRel{n: 1}
		residual = splitConjuncts(s.Where)
		var err error
		items, err = expandStars(s.Items, nil, nil)
		if err != nil {
			return nil, err
		}
	} else {
		specs, pushed := fp.specs, fp.pushed
		items, residual = fp.items, fp.residual
		ref := referencedOrdinals(s, items, fp.allCols)

		var err error
		rels := make([]*vecRel, len(specs))
		base := 0
		for i, sp := range specs {
			nc := len(sp.t.schema.Columns)
			b := strings.ToLower(sp.ref.Binding())
			rels[i], err = scanOneVec(c, sp, andAll(pushed[b]), ref[base:base+nc])
			if err != nil {
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
		src = cur
	}

	if len(residual) > 0 {
		var err error
		src, err = filterVec(c, src, residual)
		if err != nil {
			return nil, err
		}
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items)
	if grouped {
		return execGroupedVec(c, s, items, src)
	}
	return execPlainVec(c, s, items, src)
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
// referenced (just empty) column, never as an unreferenced one.
var emptyVec = make([]Value, 0)

// scanOneVec scans one table with an optional pushed-down filter, producing
// vectors for the referenced columns only. Row order matches the
// interpreter: slot (insertion) order for full scans, ascending row ID for
// the single-column-index equality path.
func scanOneVec(c *vctx, sp scanSpec, filter Expr, ref []bool) (*vecRel, error) {
	t := sp.t
	bnd := strings.ToLower(sp.ref.Binding())
	out := &vecRel{}
	for _, col := range t.schema.Columns {
		out.cols = append(out.cols, colBinding{table: bnd, name: strings.ToLower(col.Name)})
		out.names = append(out.names, col.Name)
	}
	nc := len(t.cols)
	out.vecs = make([][]Value, nc)

	// Unfiltered, fully-live table: alias the storage vectors, zero copies.
	// Callers only read them (and only under the database lock). A nil vec
	// means "unreferenced" everywhere downstream, so a never-inserted
	// table's nil storage slices must still surface as empty non-nil vecs.
	if filter == nil && t.dead == 0 {
		for i := 0; i < nc; i++ {
			if ref[i] {
				if t.cols[i] != nil {
					out.vecs[i] = t.cols[i]
				} else {
					out.vecs[i] = emptyVec
				}
			}
		}
		out.n = len(t.ids)
		return out, nil
	}

	env := &evalEnv{cols: out.cols}

	// Index point-lookup path: candidate sets are small, so the row-engine
	// helper is both fastest and trivially order-identical (sorted IDs).
	if _, _, ok := indexableEquality(t, filter, env); ok {
		ids, err := matchingRowIDs(t, filter, env)
		if err != nil {
			return nil, err
		}
		for i := 0; i < nc; i++ {
			if ref[i] {
				out.vecs[i] = make([]Value, 0, len(ids))
			}
		}
		for _, id := range ids {
			slot, ok := t.slots[id]
			if !ok || !t.live[slot] {
				continue
			}
			for i := 0; i < nc; i++ {
				if ref[i] {
					out.vecs[i] = append(out.vecs[i], t.cols[i][slot])
				}
			}
			out.n++
		}
		return out, nil
	}

	var comp vexpr
	if filter != nil {
		comp = compileExpr(filter, out.cols)
	}
	batch := &vbatch{vecs: t.cols}
	vals := c.getVals()
	defer c.putVals(vals)
	sel := c.getSel()
	defer c.putSel(sel)
	// Select first, gather after: the output vectors are sized once, by the
	// number of rows selected, never by the table's.
	keep := c.getSel()
	defer func() { c.putSel(keep) }()
	nrows := len(t.ids)
	for base := 0; base < nrows; base += vecChunk {
		end := min(base+vecChunk, nrows)
		sel = sel[:0]
		for r := base; r < end; r++ {
			if t.live[r] {
				sel = append(sel, r)
			}
		}
		if len(sel) == 0 {
			continue
		}
		k := len(sel)
		if comp != nil {
			if err := comp.eval(c, batch, sel, vals); err != nil {
				return nil, err
			}
			k = 0
			for i, r := range sel {
				if b, ok := vals[i].Truthy(); ok && b {
					sel[k] = r
					k++
				}
			}
		}
		keep = append(keep, sel[:k]...)
	}
	for i := 0; i < nc; i++ {
		if ref[i] {
			out.vecs[i] = gatherVec(t.cols[i], keep)
		}
	}
	out.n = len(keep)
	return out, nil
}

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
		cols:  append(append([]colBinding(nil), l.cols...), r.cols...),
		names: append(append([]string(nil), l.names...), r.names...),
		vecs:  make([][]Value, len(l.vecs)+len(r.vecs)),
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

// filterVec applies residual WHERE conjuncts conjunct-major per chunk: each
// conjunct narrows the chunk's selection before the next is evaluated, so
// exactly the (row, conjunct) pairs the interpreter's short-circuit would
// evaluate are evaluated here.
func filterVec(c *vctx, src *vecRel, residual []Expr) (*vecRel, error) {
	comps := make([]vexpr, len(residual))
	for i, e := range residual {
		comps[i] = compileExpr(e, src.cols)
	}
	batch := &vbatch{vecs: src.vecs}
	vals := c.getVals()
	defer c.putVals(vals)
	sel := c.getSel()
	defer c.putSel(sel)
	var keep []int
	for base := 0; base < src.n; base += vecChunk {
		end := min(base+vecChunk, src.n)
		sel = sel[:0]
		for r := base; r < end; r++ {
			sel = append(sel, r)
		}
		for _, comp := range comps {
			if len(sel) == 0 {
				break
			}
			if err := comp.eval(c, batch, sel, vals); err != nil {
				return nil, err
			}
			k := 0
			for i, r := range sel {
				if b, ok := vals[i].Truthy(); ok && b {
					sel[k] = r
					k++
				}
			}
			sel = sel[:k]
		}
		keep = append(keep, sel...)
	}
	out := &vecRel{cols: src.cols, names: src.names, n: len(keep), vecs: make([][]Value, len(src.vecs))}
	for ci, vec := range src.vecs {
		if vec == nil {
			continue
		}
		out.vecs[ci] = gatherVec(vec, keep)
	}
	return out, nil
}

// execPlainVec projects without grouping, handling ORDER BY. Projections are
// evaluated column-major per chunk; sorting reuses the interpreter's key
// semantics (aliases, ordinals, stable sort).
func execPlainVec(c *vctx, s *SelectStmt, items []SelectItem, src *vecRel) (*Result, error) {
	res := &Result{}
	for i, it := range items {
		res.Columns = append(res.Columns, itemName(it, i))
	}
	if src.n == 0 {
		return res, nil
	}

	comps := make([]vexpr, len(items))
	for i, it := range items {
		comps[i] = compileExpr(it.Expr, src.cols)
	}

	// ORDER BY key plan: alias -> projected ordinal, integer literal ->
	// output ordinal (validated here; the interpreter validates per row, but
	// src.n > 0 makes the outcomes identical), anything else -> compiled
	// source expression.
	const (
		keyAlias = iota
		keyOrdinal
		keyExpr
	)
	type keyPlan struct {
		kind int
		ord  int
		comp vexpr
	}
	aliasOf := aliasMap(items)
	keys := make([]keyPlan, len(s.OrderBy))
	for i, oi := range s.OrderBy {
		if cr, ok := oi.Expr.(*ColRef); ok && cr.Table == "" {
			if ord, hit := aliasOf[strings.ToLower(cr.Name)]; hit {
				keys[i] = keyPlan{kind: keyAlias, ord: ord}
				continue
			}
		}
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			ord := int(lit.Val.Int)
			if ord < 1 || ord > len(items) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", ord)
			}
			keys[i] = keyPlan{kind: keyOrdinal, ord: ord - 1}
			continue
		}
		keys[i] = keyPlan{kind: keyExpr, comp: compileExpr(oi.Expr, src.cols)}
	}

	type sortable struct {
		proj Row
		keys Row
	}
	var tagged []sortable
	// Every source row projects to one output row: cut them from one slab
	// and size the row list once.
	slab := make([]Value, src.n*len(items))
	if len(s.OrderBy) == 0 {
		res.Rows = make([]Row, 0, src.n)
	} else {
		tagged = make([]sortable, 0, src.n)
	}

	batch := &vbatch{vecs: src.vecs}
	bufs := make([][]Value, len(items))
	for i := range bufs {
		bufs[i] = c.getVals()
		defer c.putVals(bufs[i])
	}
	var keyBufs [][]Value
	for _, kp := range keys {
		if kp.kind == keyExpr {
			b := c.getVals()
			defer c.putVals(b)
			keyBufs = append(keyBufs, b)
		} else {
			keyBufs = append(keyBufs, nil)
		}
	}
	sel := c.getSel()
	defer c.putSel(sel)

	for base := 0; base < src.n; base += vecChunk {
		end := min(base+vecChunk, src.n)
		sel = sel[:0]
		for r := base; r < end; r++ {
			sel = append(sel, r)
		}
		for i, comp := range comps {
			if err := comp.eval(c, batch, sel, bufs[i]); err != nil {
				return nil, err
			}
		}
		for i, kp := range keys {
			if kp.kind == keyExpr {
				if err := kp.comp.eval(c, batch, sel, keyBufs[i]); err != nil {
					return nil, err
				}
			}
		}
		for j := 0; j < end-base; j++ {
			proj := Row(slab[:len(items):len(items)])
			slab = slab[len(items):]
			for i := range items {
				proj[i] = bufs[i][j]
			}
			if len(s.OrderBy) == 0 {
				res.Rows = append(res.Rows, proj)
				continue
			}
			kr := make(Row, len(keys))
			for i, kp := range keys {
				switch kp.kind {
				case keyAlias:
					kr[i] = proj[kp.ord]
				case keyOrdinal:
					kr[i] = proj[kp.ord]
				default:
					kr[i] = keyBufs[i][j]
				}
			}
			tagged = append(tagged, sortable{proj: proj, keys: kr})
		}
	}

	if len(s.OrderBy) > 0 {
		sort.SliceStable(tagged, func(i, j int) bool {
			return orderLess(tagged[i].keys, tagged[j].keys, s.OrderBy)
		})
		res.Rows = make([]Row, len(tagged))
		for i, t := range tagged {
			res.Rows[i] = t.proj
		}
	}
	return res, nil
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
func execGroupedVec(c *vctx, s *SelectStmt, items []SelectItem, src *vecRel) (*Result, error) {
	res := &Result{}
	for i, it := range items {
		res.Columns = append(res.Columns, itemName(it, i))
	}

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

	aliasOf := aliasMap(items)
	type sortable struct {
		proj Row
		keys Row
	}
	var tagged []sortable

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
		proj := make(Row, len(items))
		for i, it := range items {
			v, err := eval(it.Expr, genv)
			if err != nil {
				return nil, err
			}
			proj[i] = v
		}
		if len(s.OrderBy) == 0 {
			res.Rows = append(res.Rows, proj)
			continue
		}
		kr, err := orderKeys(s.OrderBy, genv, aliasOf, proj)
		if err != nil {
			return nil, err
		}
		tagged = append(tagged, sortable{proj: proj, keys: kr})
	}

	if len(s.OrderBy) > 0 {
		sort.SliceStable(tagged, func(i, j int) bool {
			return orderLess(tagged[i].keys, tagged[j].keys, s.OrderBy)
		})
		for _, t := range tagged {
			res.Rows = append(res.Rows, t.proj)
		}
	}
	return res, nil
}
