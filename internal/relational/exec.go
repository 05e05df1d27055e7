package relational

import (
	"fmt"
	"strings"
)

// execSelect runs a SELECT to its end: the drain of its walk. The caller
// holds the database lock.
func (db *Database) execSelect(s *SelectStmt) (*Result, error) {
	w, err := db.openSelect(s)
	if err != nil {
		return nil, err
	}
	return w.result(), nil
}

// blocking reports whether a SELECT has an operator that must see its whole
// input before the first row can leave.
func blocking(s *SelectStmt, items []SelectItem) bool {
	return len(s.OrderBy) > 0 || grouped(s, items)
}

func grouped(s *SelectStmt, items []SelectItem) bool {
	return len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items)
}

// openSelect opens a SELECT as a walk (rows.go). The caller holds the
// database lock. A SELECT that is not blocking is one walk over its FROM
// rows, cut by the LIMIT; a blocking one runs its operators here, fed by that
// walk drained, and the walk over what they built applies the LIMIT.
func (db *Database) openSelect(s *SelectStmt) (*walk, error) {
	var fp fromPlan // stays on the stack: point lookups plan on every call
	if err := db.planFrom(s, &fp); err != nil {
		return nil, err
	}
	w := db.newWalk(&fp)
	if fp.ref == nil {
		w.project(fp.items)
		w.left = s.Limit
		return w, nil
	}
	c := getVctx()
	defer c.release()
	// The operators' input: the walk's rows, drained (or aliased).
	in := w.rel(c, fp.ref)
	var out *vecRel
	var err error
	if grouped(s, fp.items) {
		out, err = db.execGroupedVec(c, s, fp.items, in)
	} else {
		out, err = sortVec(c, s, fp.items, db.relWalk(in, nil))
	}
	if err != nil {
		return nil, err
	}
	return db.heldWalk(out, itemNames(fp.items), s.Limit), nil
}

// anyAggregate reports whether any projected expression aggregates.
func anyAggregate(items []SelectItem) bool {
	for _, it := range items {
		if contains(it.Expr, isAggregate) {
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
	inspect(e, func(x Expr) bool {
		f, ok := x.(*FuncCall)
		if ok {
			out = append(out, f)
		}
		return !ok
	})
	return out
}

// scanSpec is the FROM table resolved: its table, the filter its scan
// evaluates and the index access it reads its rows through, if any.
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

// fromPlan is a SELECT's FROM clause resolved: its table's scan, which
// evaluates the whole WHERE clause (choosing an index from its conjuncts),
// the table's bindings (with display names), the select items with stars
// expanded and, for a blocking SELECT, the source columns it reads. Without
// FROM, scan.t is nil and scan.filter is the WHERE clause over one empty row.
type fromPlan struct {
	scan  scanSpec
	cols  []colBinding
	names []string
	items []SelectItem
	ref   []bool // the columns a blocking SELECT's operators read; nil: not blocking
}

// planFrom resolves s's FROM clause into fp and every name the statement
// uses under it (resolveRefs), so an unknown column or a misplaced aggregate
// fails here, whatever the rows. The executor, EXPLAIN and the test oracle
// all read their plan from it.
func (db *Database) planFrom(s *SelectStmt, fp *fromPlan) error {
	fp.scan.filter = s.Where
	if s.From != nil {
		t, err := db.table(s.From.Name)
		if err != nil {
			return err
		}
		fp.scan.ref, fp.scan.t = *s.From, t
		b := strings.ToLower(s.From.Binding())
		fp.cols = make([]colBinding, len(t.schema.Columns))
		fp.names = make([]string, len(t.schema.Columns))
		for i, c := range t.schema.Columns {
			fp.cols[i] = colBinding{table: b, name: strings.ToLower(c.Name)}
			fp.names[i] = c.Name
		}
		chooseIndex(t, fp.cols, splitConjuncts(s.Where), &fp.scan.acc)
	}
	var err error
	if fp.items, err = expandStars(s.Items, fp.cols, fp.names); err != nil {
		return err
	}
	if blocking(s, fp.items) {
		fp.ref = make([]bool, len(fp.cols))
	}
	return resolveRefs(s, fp.items, fp.cols, fp.ref)
}
