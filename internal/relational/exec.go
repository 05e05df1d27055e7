package relational

import (
	"fmt"
	"strings"
)

// execSelect runs a SELECT (or a UNION chain) to its end: the drain of its
// walk. The caller holds the database lock. Subqueries are materialised first
// against the same snapshot.
func (db *Database) execSelect(s *SelectStmt) (*Result, error) {
	w, err := db.openSelect(s)
	if err != nil {
		return nil, err
	}
	return w.result()
}

// openSelect opens a SELECT as a walk (rows.go). The caller holds the
// database lock.
func (db *Database) openSelect(s *SelectStmt) (*walk, error) {
	if s.Union == nil {
		return db.openArm(s)
	}
	rel, names, err := db.union(s)
	if err != nil {
		return nil, err
	}
	return db.heldWalk(rel, names, s.Offset, s.Limit), nil
}

// blocking reports whether an arm has an operator that must see its whole
// input before the first row can leave.
func blocking(s *SelectStmt, items []SelectItem) bool {
	return s.Distinct || len(s.OrderBy) > 0 || grouped(s, items)
}

func grouped(s *SelectStmt, items []SelectItem) bool {
	return len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items)
}

// openArm opens one SELECT arm (no UNION handling). An arm that is not
// blocking is one walk over its FROM rows, cut by OFFSET and LIMIT; a
// blocking one runs its operators here, fed by that walk drained, and the
// walk over what they built applies DISTINCT's dedupe, OFFSET and LIMIT.
func (db *Database) openArm(s *SelectStmt) (*walk, error) {
	s, err := rewriteStmtSubqueries(s, db.execSelect)
	if err != nil {
		return nil, err
	}
	var fp fromPlan // stays on the stack: point lookups plan on every call
	if err := db.planFrom(s, &fp); err != nil {
		return nil, err
	}
	w, err := db.newWalk(s, &fp)
	if err != nil {
		return nil, err
	}
	if !blocking(s, fp.items) {
		w.project(fp.items)
		w.skip, w.left = s.Offset, s.Limit
		return w, nil
	}
	c := getVctx()
	defer c.release()
	// The operators' input: the walk's rows, drained (or aliased).
	in, err := w.rel(c, referencedOrdinals(s, fp.items, w.cols))
	if err != nil {
		return nil, err
	}
	var out *vecRel
	if grouped(s, fp.items) {
		out, err = db.execGroupedVec(c, s, fp.items, in)
	} else {
		out, err = sortVec(c, s, fp.items, db.relWalk(in, nil))
	}
	if err != nil {
		return nil, err
	}
	if s.Distinct {
		out = dedupe(out)
	}
	return db.heldWalk(out, itemNames(fp.items), s.Offset, s.Limit), nil
}

// anyAggregate reports whether any projected expression aggregates.
func anyAggregate(items []SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []SelectItem, cols []colBinding, names []string) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		tbl := strings.ToLower(it.Table)
		matched := false
		for i, b := range cols {
			if tbl != "" && b.table != tbl {
				continue
			}
			matched = true
			out = append(out, SelectItem{
				Expr:  &ColRef{Table: cols[i].table, Name: cols[i].name},
				Alias: names[i],
			})
		}
		if tbl != "" && !matched {
			return nil, fmt.Errorf("sql: unknown table %s in %s.*", it.Table, it.Table)
		}
		if tbl == "" && !matched {
			return nil, fmt.Errorf("sql: SELECT * with no FROM tables")
		}
	}
	return out, nil
}

// itemName picks the display name of a projected column.
func itemName(it SelectItem, ordinal int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	if it.Expr != nil {
		return it.Expr.String()
	}
	return fmt.Sprintf("col%d", ordinal+1)
}

// itemNames names the projected columns.
func itemNames(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = itemName(it, i)
	}
	return names
}

// aliasMap maps lower-cased select aliases to projected ordinals.
func aliasMap(items []SelectItem) map[string]int {
	m := make(map[string]int, len(items))
	for i, it := range items {
		if it.Alias != "" {
			m[strings.ToLower(it.Alias)] = i
		}
	}
	return m
}

// collectAggCalls gathers every distinct aggregate call appearing in the
// select items, HAVING, and ORDER BY, deduplicated by rendered text.
func collectAggCalls(s *SelectStmt, items []SelectItem) []*FuncCall {
	var aggCalls []*FuncCall
	seenAgg := make(map[string]bool)
	collect := func(e Expr) {
		for _, f := range findAggregates(e) {
			if !seenAgg[f.String()] {
				seenAgg[f.String()] = true
				aggCalls = append(aggCalls, f)
			}
		}
	}
	for _, it := range items {
		collect(it.Expr)
	}
	collect(s.Having)
	for _, oi := range s.OrderBy {
		collect(oi.Expr)
	}
	return aggCalls
}

// findAggregates returns the aggregate calls in an expression tree.
func findAggregates(e Expr) []*FuncCall {
	var out []*FuncCall
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *FuncCall:
			if x.IsAggregate() {
				out = append(out, x)
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *InList:
			walk(x.X)
			for _, a := range x.List {
				walk(a)
			}
		case *Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		}
	}
	walk(e)
	return out
}

// ---- FROM clause construction (scans + joins with pushdown) ----

// scanSpec is one FROM/JOIN table reference resolved: its table, the filter
// its scan evaluates and the index access it reads its rows through, if any.
type scanSpec struct {
	ref    TableRef
	t      *Table
	filter Expr        // nil: none
	acc    indexAccess // acc.ix nil: every slot
}

// slots is the index access's candidate slots, ascending; nil when the scan
// reads every slot.
func (sp *scanSpec) slots() []int {
	if sp.acc.ix == nil {
		return nil
	}
	return sp.acc.slots()
}

// fromPlan is a SELECT arm's FROM clause resolved: its tables, the combined
// binding list (with display names) and the select items with stars
// expanded. The WHERE clause is partitioned: with one table its scan
// evaluates all of it (choosing an index from the conjuncts that name only
// that table); with several, each scan evaluates the conjuncts that name only
// its table and filter, the rest, is evaluated over the joined relation
// (LEFT JOIN right sides keep theirs there too, to preserve null-extension);
// with none, filter is the whole WHERE over one empty row.
type fromPlan struct {
	specs   []scanSpec
	allCols []colBinding
	names   []string
	filter  Expr
	items   []SelectItem
}

// planFrom resolves s's FROM clause into fp. The executor, EXPLAIN and the
// test oracle all read their plan from it.
func (db *Database) planFrom(s *SelectStmt, fp *fromPlan) error {
	if len(s.From) == 0 {
		fp.filter = s.Where
		var err error
		fp.items, err = expandStars(s.Items, nil, nil)
		return err
	}
	for _, tr := range s.From {
		t, err := db.table(tr.Name)
		if err != nil {
			return err
		}
		fp.specs = append(fp.specs, scanSpec{ref: tr, t: t})
	}
	for _, jc := range s.Joins {
		t, err := db.table(jc.Table.Name)
		if err != nil {
			return err
		}
		fp.specs = append(fp.specs, scanSpec{ref: jc.Table, t: t})
	}
	fp.allCols = make([]colBinding, 0)
	seenBinding := make(map[string]bool)
	for _, sp := range fp.specs {
		b := strings.ToLower(sp.ref.Binding())
		if seenBinding[b] {
			return fmt.Errorf("sql: duplicate table binding %s", sp.ref.Binding())
		}
		seenBinding[b] = true
		for _, c := range sp.t.schema.Columns {
			fp.allCols = append(fp.allCols, colBinding{table: b, name: strings.ToLower(c.Name)})
			fp.names = append(fp.names, c.Name)
		}
	}

	// Partition WHERE conjuncts: pushable to a single binding vs residual.
	pushed := make(map[string][]Expr)
	var residual []Expr
	for _, conj := range splitConjuncts(s.Where) {
		if tbl, ok := singleBinding(conj, fp.allCols); ok {
			pushed[tbl] = append(pushed[tbl], conj)
		} else {
			residual = append(residual, conj)
		}
	}
	for _, jc := range s.Joins {
		if jc.Kind == "LEFT" {
			b := strings.ToLower(jc.Table.Binding())
			residual = append(residual, pushed[b]...)
			delete(pushed, b)
		}
	}
	base := 0 // the spec's first column in fp.allCols
	for i := range fp.specs {
		sp := &fp.specs[i]
		conjs := pushed[strings.ToLower(sp.ref.Binding())]
		nc := len(sp.t.schema.Columns)
		sp.filter = andAll(conjs)
		chooseIndex(sp.t, fp.allCols[base:base+nc], conjs, &sp.acc)
		base += nc
	}
	if len(fp.specs) == 1 {
		fp.specs[0].filter = s.Where
	} else {
		fp.filter = andAll(residual)
	}
	var err error
	fp.items, err = expandStars(s.Items, fp.allCols, fp.names)
	return err
}

// singleBinding reports whether every column in the expression resolves to
// one binding (returned lower-cased). Expressions with no columns are not
// pushable (they are constants; evaluating them once in residual is fine).
func singleBinding(e Expr, all []colBinding) (string, bool) {
	refs := collectColRefs(e)
	if len(refs) == 0 {
		return "", false
	}
	binding := ""
	for _, cr := range refs {
		b, ok := resolveBinding(cr, all)
		if !ok {
			return "", false
		}
		if binding == "" {
			binding = b
		} else if binding != b {
			return "", false
		}
	}
	return binding, true
}

func resolveBinding(cr *ColRef, all []colBinding) (string, bool) {
	tbl := strings.ToLower(cr.Table)
	name := strings.ToLower(cr.Name)
	if tbl != "" {
		for _, b := range all {
			if b.table == tbl && b.name == name {
				return tbl, true
			}
		}
		return "", false
	}
	found := ""
	for _, b := range all {
		if b.name == name {
			if found != "" && found != b.table {
				return "", false // ambiguous
			}
			found = b.table
		}
	}
	return found, found != ""
}

func collectColRefs(e Expr) []*ColRef {
	var out []*ColRef
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *ColRef:
			out = append(out, x)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *InList:
			walk(x.X)
			for _, a := range x.List {
				walk(a)
			}
		case *Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

func andAll(exprs []Expr) Expr {
	if len(exprs) == 0 {
		return nil
	}
	e := exprs[0]
	for _, next := range exprs[1:] {
		e = &Binary{Op: "AND", L: e, R: next}
	}
	return e
}

// equiKeys extracts `left = right` column pairs from an ON expression when
// the whole condition is a conjunction of such equalities, enabling a hash
// join. Returns nil when the shape doesn't match.
func equiKeys(on Expr, lcols, rcols []colBinding) (lk, rk []int) {
	for _, conj := range splitConjuncts(on) {
		b, ok := conj.(*Binary)
		if !ok || b.Op != "=" {
			return nil, nil
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			return nil, nil
		}
		li, lerr := resolveCol(lcols, lc)
		ri, rerr := resolveCol(rcols, rc)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		// Try swapped sides.
		li, lerr = resolveCol(lcols, rc)
		ri, rerr = resolveCol(rcols, lc)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		return nil, nil
	}
	return lk, rk
}
