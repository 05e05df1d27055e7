package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file is the batched (vectorized) SELECT executor's operators: ORDER BY
// and grouping, moving data in column vectors of up to vecChunk rows per
// call. A row-at-a-time interpreter in the package's tests is the oracle this
// engine is checked against: for any statement, both produce equal Results,
// or both fail.

// vecRel is an intermediate relation in columnar form: one value vector per
// binding. A nil vector marks a column no expression in the statement
// references; such columns are carried as bindings (for name resolution)
// but never materialised.
type vecRel struct {
	cols []colBinding
	vecs [][]Value
	n    int
}

// newWalk opens the walk over a SELECT's FROM rows, unprojected: its table's
// slots or index candidates, or one empty row for a SELECT without FROM.
func (db *Database) newWalk(fp *fromPlan) *walk {
	if fp.scan.t == nil {
		return db.relWalk(&vecRel{n: 1}, fp.scan.filter)
	}
	return db.scanWalk(&fp.scan, fp.cols)
}

// resolveRefs resolves every column the statement names under cols —
// select items (post star expansion, so aggregate arguments are included),
// WHERE, GROUP BY, HAVING and ORDER BY — checks that every ORDER BY ordinal
// names an item, and checks that aggregate calls stand only where a grouped
// SELECT reads them: in an item, HAVING or ORDER BY, not in WHERE, GROUP BY
// or another call's argument. When ref is not nil it marks the columns read:
// unmarked columns are never materialised.
func resolveRefs(s *SelectStmt, items []SelectItem, cols []colBinding, ref []bool) error {
	rp := refPass{cols: cols, ref: ref}
	g := grouped(s, items)
	for _, it := range items {
		if err := rp.expr(it.Expr, g); err != nil {
			return err
		}
	}
	if err := rp.expr(s.Where, false); err != nil {
		return err
	}
	for _, ge := range s.GroupBy {
		if err := rp.expr(ge, false); err != nil {
			return err
		}
	}
	if err := rp.expr(s.Having, g); err != nil {
		return err
	}
	for _, oi := range s.OrderBy {
		if cr, ok := oi.Expr.(*ColRef); ok && cr.Table == "" && slices.ContainsFunc(items, func(it SelectItem) bool {
			return strings.EqualFold(it.Alias, cr.Name)
		}) {
			continue // an item's alias (sortVec)
		}
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			if lit.Val.Int < 1 || lit.Val.Int > int64(len(items)) {
				return fmt.Errorf("sql: ORDER BY ordinal %d out of range", lit.Val.Int)
			}
			continue // an item's ordinal (sortVec)
		}
		if err := rp.expr(oi.Expr, g); err != nil {
			return err
		}
	}
	return nil
}

// refPass is resolveRefs' walk over one expression tree.
type refPass struct {
	cols []colBinding
	ref  []bool // nil: resolve only
}

// expr resolves e's column references; aggs says whether an aggregate call
// may stand there.
func (rp *refPass) expr(e Expr, aggs bool) error {
	switch x := e.(type) {
	case *ColRef:
		ord, err := resolveCol(rp.cols, x)
		if err == nil && rp.ref != nil {
			rp.ref[ord] = true
		}
		return err
	case *Binary:
		if err := rp.expr(x.L, aggs); err != nil {
			return err
		}
		return rp.expr(x.R, aggs)
	case *InList:
		return rp.expr(x.X, aggs) // the items are literals
	case *FuncCall:
		if !aggs {
			return fmt.Errorf("sql: aggregate %s used outside aggregation context", x.Name)
		}
		for _, a := range x.Args {
			if err := rp.expr(a, false); err != nil {
				return err
			}
		}
	}
	return nil
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

// sortVec is ORDER BY over a SELECT that does not group: w, a walk over its
// filtered rows, drained, projects every item and every key that is not an
// item's alias or ordinal, and the rows are sorted stably by the keys (an
// alias or an ordinal names an item's column). It returns the items' columns.
func sortVec(c *vctx, s *SelectStmt, items []SelectItem, w *walk) (*vecRel, error) {
	exprs := items
	keys := make([]int, len(s.OrderBy))
	aliasOf := aliasMap(items)
	for i, oi := range s.OrderBy {
		if cr, ok := oi.Expr.(*ColRef); ok && cr.Table == "" {
			if ord, hit := aliasOf[strings.ToLower(cr.Name)]; hit {
				keys[i] = ord
				continue
			}
		}
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			keys[i] = int(lit.Val.Int) - 1 // in range: resolveRefs checked it
			continue
		}
		keys[i] = len(exprs)
		exprs = append(exprs[:len(exprs):len(exprs)], SelectItem{Expr: oi.Expr})
	}
	w.project(exprs)
	return sortRel(w.drain(c), keys, s.OrderBy, len(items)), nil
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

// aggAcc streams one aggregate call for one group: NULLs skipped, DISTINCT
// deduplicated by encoded key, SUM stays integral while every input is
// integral.
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
// streaming accumulators: one pass over the source builds all groups. The
// groups then form one relation — each group's first row's source columns,
// then one column per aggregate call, bound to the call (aggBinding) — which
// a walk filters by HAVING and sortVec projects and orders.
func (db *Database) execGroupedVec(c *vctx, s *SelectStmt, items []SelectItem, src *vecRel) (*vecRel, error) {
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
			comp.eval(c, batch, sel, gbufs[i])
		}
		for i, comp := range argComps {
			if comp != nil {
				comp.eval(c, batch, sel, abufs[i])
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

	// The relation of groups (its bindings are appended to a clipped copy of
	// src's, never into them). The empty group reads NULL source columns.
	groupRel := &vecRel{cols: slices.Clip(src.cols), n: len(order),
		vecs: make([][]Value, len(src.cols), len(src.cols)+len(aggCalls))}
	for ci, vec := range src.vecs {
		if vec == nil {
			continue // unreferenced
		}
		col := make([]Value, len(order))
		for gi, g := range order {
			if col[gi] = NullValue(); g.first >= 0 {
				col[gi] = vec[g.first]
			}
		}
		groupRel.vecs[ci] = col
	}
	for ai, f := range aggCalls {
		vec := make([]Value, len(order))
		for gi, g := range order {
			vec[gi] = g.accs[ai].result(f, g.rows)
		}
		groupRel.cols = append(groupRel.cols, aggBinding(f))
		groupRel.vecs = append(groupRel.vecs, vec)
	}
	return sortVec(c, s, items, db.relWalk(groupRel, s.Having))
}

// result is the aggregate call f's value over a group of rows rows.
func (acc *aggAcc) result(f *FuncCall, rows int64) Value {
	switch {
	case f.Star:
		return IntValue(rows)
	case f.Name == "COUNT":
		return IntValue(acc.n)
	case f.Name == "MIN" || f.Name == "MAX":
		if acc.hasBest {
			return acc.best
		}
	case f.Name == "SUM" && acc.n > 0:
		if acc.allInt {
			return IntValue(acc.isum)
		}
		return FloatValue(acc.fsum)
	case f.Name == "AVG" && acc.n > 0:
		return FloatValue(acc.fsum / float64(acc.n))
	}
	return NullValue()
}
