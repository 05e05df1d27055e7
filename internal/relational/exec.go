package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// rel is an intermediate relation of the row oracle: column bindings (for
// name resolution) and materialised rows.
type rel struct {
	cols []colBinding
	rows []Row
}

func (r *rel) env() *evalEnv { return &evalEnv{cols: r.cols} }

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
// With rowExec set the seed row-at-a-time interpreter, kept as the batched
// executor's test oracle, computes the arm instead.
func (db *Database) openArm(s *SelectStmt) (*walk, error) {
	s, err := db.rewriteStmtSubqueries(s)
	if err != nil {
		return nil, err
	}
	var fp fromPlan // stays on the stack: point lookups plan on every call
	if err := db.planFrom(s, &fp); err != nil {
		return nil, err
	}
	block := blocking(s, fp.items)
	var out *vecRel
	if db.rowExec {
		res, err := db.execSelectArmRows(s, &fp, block)
		if err != nil {
			return nil, err
		}
		if out = rowsRel(res); !block {
			return db.heldWalk(out, res.Columns, 0, -1), nil
		}
	} else {
		w, err := db.newWalk(s, &fp)
		if err != nil {
			return nil, err
		}
		if !block {
			w.project(fp.items)
			w.skip, w.left = s.Offset, s.Limit
			return w, nil
		}
		c := getVctx()
		defer c.release()
		// The operators' input: the walk's rows, drained (or aliased).
		in, err := w.rel(c, referencedOrdinals(s, fp.items, w.cols))
		switch {
		case err != nil:
		case grouped(s, fp.items):
			out, err = execGroupedVec(c, s, fp.items, in)
		default:
			out, err = sortVec(c, s, fp.items, db.relWalk(in, nil))
		}
		if err != nil {
			return nil, err
		}
	}
	if s.Distinct {
		out = dedupe(out)
	}
	return db.heldWalk(out, itemNames(fp.items), s.Offset, s.Limit), nil
}

// execSelectArmRows is the seed row-at-a-time interpreter, retained as the
// oracle the batched executor is property-tested against. It evaluates with
// the scalar evaluator (expr.go) over the same FROM rows in the same order —
// one table's rows (those the plan's index access reaches, found by reading
// every slot), or the joined relation — and walks them once: filter, then
// OFFSET, then projection, stopping at the LIMIT, so a row the walk does not
// reach cannot fail the statement. A blocking arm (block) keeps every row that passes the
// filter and returns its operators' whole output instead, before DISTINCT,
// OFFSET and LIMIT, which openArm applies as it does for the batched engine.
func (db *Database) execSelectArmRows(s *SelectStmt, fp *fromPlan, block bool) (*Result, error) {
	src, filter, err := db.buildFrom(s, fp)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: itemNames(fp.items)}
	env := src.env()
	skip, limit := s.Offset, s.Limit
	if block {
		skip, limit = 0, -1
	}
	var kept []Row
	for _, row := range src.rows {
		if len(res.Rows) == limit {
			break
		}
		env.row = row
		if filter != nil {
			v, err := eval(filter, env)
			if err != nil {
				return nil, err
			}
			if b, ok := v.Truthy(); !ok || !b {
				continue
			}
		}
		if block {
			kept = append(kept, row)
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		proj := make(Row, len(fp.items))
		for i, it := range fp.items {
			if proj[i], err = eval(it.Expr, env); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, proj)
	}
	if !block {
		return res, nil
	}
	src.rows = kept
	if grouped(s, fp.items) {
		return db.execGrouped(s, fp.items, src)
	}
	return db.execPlain(s, fp.items, src)
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

// execPlain projects without grouping, handling ORDER BY.
func (db *Database) execPlain(s *SelectStmt, items []SelectItem, src *rel) (*Result, error) {
	res := &Result{Columns: itemNames(items)}
	env := src.env()

	type sortable struct {
		proj Row
		keys Row
	}
	var tagged []sortable
	aliasOf := aliasMap(items)

	for _, row := range src.rows {
		env.row = row
		proj := make(Row, len(items))
		for i, it := range items {
			v, err := eval(it.Expr, env)
			if err != nil {
				return nil, err
			}
			proj[i] = v
		}
		if len(s.OrderBy) == 0 {
			res.Rows = append(res.Rows, proj)
			continue
		}
		keys, err := orderKeys(s.OrderBy, env, aliasOf, proj)
		if err != nil {
			return nil, err
		}
		tagged = append(tagged, sortable{proj: proj, keys: keys})
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

// orderKeys evaluates ORDER BY key expressions; a bare identifier matching a
// select alias uses the projected value.
func orderKeys(order []OrderItem, env *evalEnv, aliasOf map[string]int, proj Row) (Row, error) {
	keys := make(Row, len(order))
	for i, oi := range order {
		if cr, ok := oi.Expr.(*ColRef); ok && cr.Table == "" {
			if ord, hit := aliasOf[strings.ToLower(cr.Name)]; hit {
				keys[i] = proj[ord]
				continue
			}
		}
		// ORDER BY <n> selects the n-th output column.
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			ord := int(lit.Val.Int)
			if ord < 1 || ord > len(proj) {
				return nil, fmt.Errorf("sql: ORDER BY ordinal %d out of range", ord)
			}
			keys[i] = proj[ord-1]
			continue
		}
		v, err := eval(oi.Expr, env)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func orderLess(a, b Row, order []OrderItem) bool {
	for i, oi := range order {
		c := Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if oi.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// execGrouped implements GROUP BY / HAVING / aggregate projection. With no
// GROUP BY, all rows form one group (and an empty input yields one group of
// zero rows, per SQL).
func (db *Database) execGrouped(s *SelectStmt, items []SelectItem, src *rel) (*Result, error) {
	res := &Result{Columns: itemNames(items)}

	aggCalls := collectAggCalls(s, items)

	// Partition rows into groups.
	env := src.env()
	type group struct {
		rows []Row
	}
	groups := make(map[string]*group)
	var orderOfGroups []string
	for _, row := range src.rows {
		env.row = row
		key := ""
		if len(s.GroupBy) > 0 {
			vals := make([]Value, len(s.GroupBy))
			for i, ge := range s.GroupBy {
				v, err := eval(ge, env)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			key = encodeKey(vals)
		}
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			orderOfGroups = append(orderOfGroups, key)
		}
		g.rows = append(g.rows, row)
	}
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{}
		orderOfGroups = append(orderOfGroups, "")
	}

	aliasOf := aliasMap(items)
	type sortable struct {
		proj Row
		keys Row
	}
	var tagged []sortable

	for _, key := range orderOfGroups {
		g := groups[key]
		aggs := make(map[string]Value, len(aggCalls))
		for _, f := range aggCalls {
			v, err := computeAggregate(f, g.rows, src)
			if err != nil {
				return nil, err
			}
			aggs[f.String()] = v
		}
		genv := &evalEnv{cols: src.cols, aggs: aggs}
		if len(g.rows) > 0 {
			genv.row = g.rows[0]
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
		keys, err := orderKeys(s.OrderBy, genv, aliasOf, proj)
		if err != nil {
			return nil, err
		}
		tagged = append(tagged, sortable{proj: proj, keys: keys})
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

// collectAggCalls gathers every distinct aggregate call appearing in the
// select items, HAVING, and ORDER BY, deduplicated by rendered text (shared
// by the row and batched group-by implementations).
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

// computeAggregate evaluates one aggregate call over a group's rows.
func computeAggregate(f *FuncCall, rows []Row, src *rel) (Value, error) {
	env := src.env()
	if f.Star { // COUNT(*)
		return IntValue(int64(len(rows))), nil
	}
	arg := f.Args[0]
	var vals []Value
	seen := make(map[string]bool)
	for _, row := range rows {
		env.row = row
		v, err := eval(arg, env)
		if err != nil {
			return Value{}, err
		}
		if v.Null {
			continue // aggregates skip NULLs
		}
		if f.Distinct {
			k := encodeKey([]Value{v})
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return IntValue(int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return NullValue(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return NullValue(), nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok {
				return Value{}, fmt.Errorf("sql: %s over non-numeric values", f.Name)
			}
			fsum += fv
			if v.Kind == TypeInt {
				isum += v.Int
			} else {
				allInt = false
			}
		}
		if f.Name == "SUM" {
			if allInt {
				return IntValue(isum), nil
			}
			return FloatValue(fsum), nil
		}
		return FloatValue(fsum / float64(len(vals))), nil
	}
	return Value{}, fmt.Errorf("sql: unknown aggregate %s", f.Name)
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

// rowIDs is the index access's candidate row IDs, ascending; nil when the
// scan reads every slot.
func (sp *scanSpec) rowIDs() []int64 {
	if sp.acc.ix == nil {
		return nil
	}
	return sp.acc.rowIDs()
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

// planFrom resolves s's FROM clause into fp. The executor, the row oracle and
// EXPLAIN all read their plan from it.
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

// buildFrom materialises the row oracle's FROM rows and returns the filter
// its walk evaluates over them: one table's rows under the whole WHERE
// clause, or the joined relation of scans that each applied their own filter
// under fp.filter. A scan reads every slot whatever the plan's access: where
// the plan reads through an index, the oracle keeps the rows for which the
// conjuncts the access answers are TRUE, evaluated here, so it reaches the
// rows the executor's candidates should be without reading the index.
func (db *Database) buildFrom(s *SelectStmt, fp *fromPlan) (*rel, Expr, error) {
	if len(fp.specs) == 0 {
		// SELECT without FROM: one empty row.
		return &rel{rows: []Row{{}}}, fp.filter, nil
	}
	scanOne := func(sp *scanSpec, filter Expr) (*rel, error) {
		r := &rel{}
		b := strings.ToLower(sp.ref.Binding())
		for _, c := range sp.t.schema.Columns {
			r.cols = append(r.cols, colBinding{table: b, name: strings.ToLower(c.Name)})
		}
		env := r.env()
		keep := slices.Clip(sp.acc.conjs)
		if filter != nil {
			keep = append(keep, filter)
		}
		var evalErr error
		sp.t.scan(func(_ int64, row Row) bool {
			env.row = row
			for _, e := range keep {
				v, err := eval(e, env)
				if err != nil {
					evalErr = err
					return false
				}
				if b, ok := v.Truthy(); !ok || !b {
					return true
				}
			}
			r.rows = append(r.rows, row.Clone())
			return true
		})
		return r, evalErr
	}
	if len(fp.specs) == 1 {
		r, err := scanOne(&fp.specs[0], nil)
		return r, fp.specs[0].filter, err
	}

	cur, err := scanOne(&fp.specs[0], fp.specs[0].filter)
	if err != nil {
		return nil, nil, err
	}
	// Comma-joined FROM tables: cross products (fp.filter applies later).
	for i := 1; i < len(s.From); i++ {
		right, err := scanOne(&fp.specs[i], fp.specs[i].filter)
		if err != nil {
			return nil, nil, err
		}
		cur = crossJoin(cur, right)
	}
	// Explicit JOIN clauses.
	for ji, jc := range s.Joins {
		sp := &fp.specs[len(s.From)+ji]
		right, err := scanOne(sp, sp.filter)
		if err != nil {
			return nil, nil, err
		}
		switch jc.Kind {
		case "CROSS":
			cur = crossJoin(cur, right)
		case "INNER":
			cur, err = innerJoin(cur, right, jc.On)
		case "LEFT":
			cur, err = leftJoin(cur, right, jc.On)
		default:
			err = fmt.Errorf("sql: unsupported join kind %s", jc.Kind)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return cur, fp.filter, nil
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

func joinedRel(l, r *rel) *rel {
	return &rel{cols: append(append([]colBinding(nil), l.cols...), r.cols...)}
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func crossJoin(l, r *rel) *rel {
	out := joinedRel(l, r)
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			out.rows = append(out.rows, concatRows(lr, rr))
		}
	}
	return out
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
		li, lerr := (&evalEnv{cols: lcols}).resolve(lc)
		ri, rerr := (&evalEnv{cols: rcols}).resolve(rc)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		// Try swapped sides.
		li, lerr = (&evalEnv{cols: lcols}).resolve(rc)
		ri, rerr = (&evalEnv{cols: rcols}).resolve(lc)
		if lerr == nil && rerr == nil {
			lk = append(lk, li)
			rk = append(rk, ri)
			continue
		}
		return nil, nil
	}
	return lk, rk
}

func innerJoin(l, r *rel, on Expr) (*rel, error) {
	out := joinedRel(l, r)
	if lk, rk := equiKeys(on, l.cols, r.cols); lk != nil {
		// Hash join.
		ht := make(map[string][]Row, len(r.rows))
		for _, rr := range r.rows {
			vals := make([]Value, len(rk))
			null := false
			for i, ord := range rk {
				vals[i] = rr[ord]
				null = null || rr[ord].Null
			}
			if null {
				continue
			}
			k := encodeKey(vals)
			ht[k] = append(ht[k], rr)
		}
		for _, lr := range l.rows {
			vals := make([]Value, len(lk))
			null := false
			for i, ord := range lk {
				vals[i] = lr[ord]
				null = null || lr[ord].Null
			}
			if null {
				continue
			}
			for _, rr := range ht[encodeKey(vals)] {
				out.rows = append(out.rows, concatRows(lr, rr))
			}
		}
		return out, nil
	}
	// Nested loop fallback for arbitrary ON conditions.
	env := &evalEnv{cols: out.cols}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			row := concatRows(lr, rr)
			env.row = row
			v, err := eval(on, env)
			if err != nil {
				return nil, err
			}
			if b, ok := v.Truthy(); ok && b {
				out.rows = append(out.rows, row)
			}
		}
	}
	return out, nil
}

func leftJoin(l, r *rel, on Expr) (*rel, error) {
	out := joinedRel(l, r)
	env := &evalEnv{cols: out.cols}
	nulls := make(Row, len(r.cols))
	for i := range nulls {
		nulls[i] = NullValue()
	}
	for _, lr := range l.rows {
		matched := false
		for _, rr := range r.rows {
			row := concatRows(lr, rr)
			env.row = row
			v, err := eval(on, env)
			if err != nil {
				return nil, err
			}
			if b, ok := v.Truthy(); ok && b {
				matched = true
				out.rows = append(out.rows, row)
			}
		}
		if !matched {
			out.rows = append(out.rows, concatRows(lr, nulls))
		}
	}
	return out, nil
}
