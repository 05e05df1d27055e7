package relational

import (
	"fmt"
	"strings"
)

// rewriteStmtSubqueries replaces Subquery expressions in a SELECT with their
// materialised results (an IN-list of literals, or a boolean literal for
// EXISTS), each the result run returns for it: the executor's execSelect, or
// the test oracle's own. Subqueries are uncorrelated: they are evaluated once
// against the current database snapshot. The original statement is never
// mutated.
func rewriteStmtSubqueries(s *SelectStmt, run func(*SelectStmt) (*Result, error)) (*SelectStmt, error) {
	changed := false
	out := *s
	rw := func(e Expr) (Expr, error) {
		ne, ch, err := rewriteSubqueries(e, run)
		if err != nil {
			return nil, err
		}
		changed = changed || ch
		return ne, nil
	}
	var err error
	if out.Where, err = rw(s.Where); err != nil {
		return nil, err
	}
	if out.Having, err = rw(s.Having); err != nil {
		return nil, err
	}
	if anySubquery(s.Items) {
		out.Items = append([]SelectItem(nil), s.Items...)
		for i := range out.Items {
			if out.Items[i].Expr == nil {
				continue
			}
			if out.Items[i].Expr, err = rw(out.Items[i].Expr); err != nil {
				return nil, err
			}
		}
	}
	if !changed {
		return s, nil
	}
	return &out, nil
}

func anySubquery(items []SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && hasSubquery(it.Expr) {
			return true
		}
	}
	return false
}

// hasSubquery reports whether an expression tree contains a Subquery.
func hasSubquery(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *Subquery:
		return true
	case *Binary:
		return hasSubquery(x.L) || hasSubquery(x.R)
	case *Unary:
		return hasSubquery(x.X)
	case *IsNull:
		return hasSubquery(x.X)
	case *InList:
		if hasSubquery(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasSubquery(a) {
				return true
			}
		}
	case *Between:
		return hasSubquery(x.X) || hasSubquery(x.Lo) || hasSubquery(x.Hi)
	case *FuncCall:
		for _, a := range x.Args {
			if hasSubquery(a) {
				return true
			}
		}
	}
	return false
}

// rewriteSubqueries materialises any Subquery nodes. The caller holds the
// database lock; nested selects run against the same snapshot.
func rewriteSubqueries(e Expr, run func(*SelectStmt) (*Result, error)) (Expr, bool, error) {
	switch x := e.(type) {
	case nil:
		return nil, false, nil
	case *Subquery:
		res, err := run(x.Select)
		if err != nil {
			return nil, false, fmt.Errorf("sql: subquery: %w", err)
		}
		if x.Exists {
			v := len(res.Rows) > 0
			if x.Negate {
				v = !v
			}
			return &Literal{Val: BoolValue(v)}, true, nil
		}
		if len(res.Columns) != 1 {
			return nil, false, fmt.Errorf("sql: IN subquery must return one column, got %d", len(res.Columns))
		}
		in := &InList{X: x.X, Negate: x.Negate}
		for _, row := range res.Rows {
			in.List = append(in.List, &Literal{Val: row[0]})
		}
		return in, true, nil
	case *Binary:
		l, lc, err := rewriteSubqueries(x.L, run)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := rewriteSubqueries(x.R, run)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return x, false, nil
		}
		return &Binary{Op: x.Op, L: l, R: r}, true, nil
	case *Unary:
		in, ch, err := rewriteSubqueries(x.X, run)
		if err != nil || !ch {
			return x, false, err
		}
		return &Unary{Op: x.Op, X: in}, true, nil
	case *IsNull:
		in, ch, err := rewriteSubqueries(x.X, run)
		if err != nil || !ch {
			return x, false, err
		}
		return &IsNull{X: in, Negate: x.Negate}, true, nil
	case *Between:
		v, vc, err := rewriteSubqueries(x.X, run)
		if err != nil {
			return nil, false, err
		}
		lo, lc, err := rewriteSubqueries(x.Lo, run)
		if err != nil {
			return nil, false, err
		}
		hi, hc, err := rewriteSubqueries(x.Hi, run)
		if err != nil {
			return nil, false, err
		}
		if !vc && !lc && !hc {
			return x, false, nil
		}
		return &Between{X: v, Lo: lo, Hi: hi, Negate: x.Negate}, true, nil
	case *InList:
		v, vc, err := rewriteSubqueries(x.X, run)
		if err != nil {
			return nil, false, err
		}
		changed := vc
		list := x.List
		for i, item := range x.List {
			ni, ch, err := rewriteSubqueries(item, run)
			if err != nil {
				return nil, false, err
			}
			if ch {
				if !changed && i >= 0 {
					list = append([]Expr(nil), x.List...)
				}
				changed = true
				list[i] = ni
			}
		}
		if !changed {
			return x, false, nil
		}
		if !vc {
			v = x.X
		}
		return &InList{X: v, List: list, Negate: x.Negate}, true, nil
	case *FuncCall:
		changed := false
		args := x.Args
		for i, a := range x.Args {
			na, ch, err := rewriteSubqueries(a, run)
			if err != nil {
				return nil, false, err
			}
			if ch {
				if !changed {
					args = append([]Expr(nil), x.Args...)
				}
				changed = true
				args[i] = na
			}
		}
		if !changed {
			return x, false, nil
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, true, nil
	}
	return e, false, nil
}

// union evaluates a UNION chain, a blocking operator: the arms run
// independently, each drained, duplicates are removed across each plain-UNION
// boundary, and the head's ORDER BY sorts the combined rows (by output column
// names or 1-based ordinals). The head's OFFSET and LIMIT are the caller's
// walk's. It returns the rows and the head arm's column names.
func (db *Database) union(s *SelectStmt) (*vecRel, []string, error) {
	c := getVctx()
	defer c.release()
	var out *vecRel
	var names []string
	prevAll := false
	for arm := s; arm != nil; arm = arm.Union {
		armCopy := *arm
		armCopy.Union = nil
		armCopy.OrderBy = nil
		armCopy.Limit = -1
		armCopy.Offset = 0
		w, err := db.openArm(&armCopy)
		if err != nil {
			return nil, nil, err
		}
		rel, err := w.drain(c)
		if err != nil {
			return nil, nil, err
		}
		if out == nil {
			out, names = rel, w.names
		} else {
			if len(rel.vecs) != len(out.vecs) {
				return nil, nil, fmt.Errorf("sql: UNION arms have %d and %d columns", len(out.vecs), len(rel.vecs))
			}
			for i := range out.vecs {
				out.vecs[i] = append(out.vecs[i], rel.vecs[i]...)
			}
			out.n += rel.n
			if !prevAll {
				out = dedupe(out)
			}
		}
		prevAll = arm.UnionAll
	}
	keys, err := outputOrdinals(names, s.OrderBy)
	if err != nil {
		return nil, nil, err
	}
	return sortRel(out, keys, s.OrderBy, len(names)), names, nil
}

// outputOrdinals resolves UNION ORDER BY keys against the output columns:
// bare names match column headers, integer literals are 1-based ordinals.
func outputOrdinals(names []string, order []OrderItem) ([]int, error) {
	ords := make([]int, len(order))
	for i, oi := range order {
		switch e := oi.Expr.(type) {
		case *ColRef:
			if e.Table != "" {
				return nil, fmt.Errorf("sql: UNION ORDER BY must use output column names")
			}
			found := -1
			for ci, c := range names {
				if strings.EqualFold(c, e.Name) {
					found = ci
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("sql: ORDER BY column %s not in UNION output", e.Name)
			}
			ords[i] = found
		case *Literal:
			if e.Val.Kind != TypeInt || e.Val.Int < 1 || int(e.Val.Int) > len(names) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %s out of range", e.Val)
			}
			ords[i] = int(e.Val.Int) - 1
		default:
			return nil, fmt.Errorf("sql: UNION ORDER BY supports column names and ordinals only")
		}
	}
	return ords, nil
}

// explainSelect renders the plan the executor opens for a SELECT, read from
// the same fromPlan: where each arm's walk reads its rows (streamed from a
// table, or held by an operator that builds them at open), the operators
// above it, the filters it and each scan evaluate, index selection and join
// strategy.
func (db *Database) explainSelect(s *SelectStmt) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	emit := func(depth int, format string, args ...any) {
		res.Rows = append(res.Rows, Row{TextValue(strings.Repeat("  ", depth) + fmt.Sprintf(format, args...))})
	}
	for arm := s; arm != nil; arm = arm.Union {
		armCopy := *arm
		depth := 0
		if arm != s {
			emit(0, "union")
			armCopy.OrderBy = nil
			armCopy.Limit = -1
			depth = 1
		}
		if err := db.explainArm(&armCopy, s.Union != nil, depth, emit); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (db *Database) explainArm(s *SelectStmt, inUnion bool, depth int, emit func(int, string, ...any)) error {
	s, err := rewriteStmtSubqueries(s, db.execSelect)
	if err != nil {
		return err
	}
	var fp fromPlan
	if err := db.planFrom(s, &fp); err != nil {
		return err
	}
	if inUnion || blocking(s, fp.items) || len(fp.specs) != 1 {
		emit(depth, "rows held at open")
	} else {
		emit(depth, "rows streamed from %s", fp.specs[0].t.schema.Name)
	}
	if s.Limit >= 0 || s.Offset > 0 {
		emit(depth, "limit %d offset %d", s.Limit, s.Offset)
		depth++
	}
	if s.Distinct {
		emit(depth, "distinct")
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
		emit(depth, "sort by %s", strings.Join(keys, ", "))
		depth++
	}
	if grouped(s, fp.items) {
		if len(s.GroupBy) > 0 {
			keys := make([]string, len(s.GroupBy))
			for i, g := range s.GroupBy {
				keys[i] = g.String()
			}
			emit(depth, "aggregate group by %s", strings.Join(keys, ", "))
		} else {
			emit(depth, "aggregate (single group)")
		}
		depth++
	}
	if fp.filter != nil {
		emit(depth, "filter %s", fp.filter)
		depth++
	}
	if len(fp.specs) == 0 {
		emit(depth, "values (no FROM)")
		return nil
	}

	scan := func(sp *scanSpec, depth int) {
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
		emit(depth, "%s", line)
	}
	scan(&fp.specs[0], depth)
	for i := 1; i < len(s.From); i++ {
		emit(depth, "cross join")
		scan(&fp.specs[i], depth+1)
	}
	left := 0 // the joined columns so far
	for _, sp := range fp.specs[:len(s.From)] {
		left += len(sp.t.schema.Columns)
	}
	for ji, jc := range s.Joins {
		sp := &fp.specs[len(s.From)+ji]
		nc := len(sp.t.schema.Columns)
		switch jc.Kind {
		case "CROSS":
			emit(depth, "cross join")
		case "INNER":
			// The executor's dispatch: a hash join when the ON clause is
			// a conjunction of column equalities across the two sides.
			strategy := "nested-loop join"
			if lk, _ := equiKeys(jc.On, fp.allCols[:left], fp.allCols[left:left+nc]); lk != nil {
				strategy = "hash join"
			}
			emit(depth, "%s on %s", strategy, jc.On)
		case "LEFT":
			emit(depth, "left join on %s", jc.On)
		}
		scan(sp, depth+1)
		left += nc
	}
	return nil
}
