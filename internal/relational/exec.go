package relational

import (
	"fmt"
	"sort"
	"strings"
)

// rel is an intermediate relation during SELECT execution: column bindings
// (for name resolution), display names, and materialised rows.
type rel struct {
	cols  []colBinding
	names []string
	rows  []Row
}

func (r *rel) env() *evalEnv { return &evalEnv{cols: r.cols} }

// execSelect runs a SELECT (or a UNION chain) to its end. The caller holds
// the database lock. Subqueries are materialised first against the same
// snapshot.
func (db *Database) execSelect(s *SelectStmt) (*Result, error) {
	return drained(db.planSelect(s))
}

// drained finishes what planSelect or planSelectArm opened: a stream is run
// to its end, anything else is done already.
func drained(res *Result, st *stream, err error) (*Result, error) {
	if st != nil {
		return st.drain()
	}
	return res, err
}

// planSelect opens a SELECT: a statement that streams (rows.go) comes back as
// a stream that has not read a row yet, any other one executed.
func (db *Database) planSelect(s *SelectStmt) (*Result, *stream, error) {
	s, err := db.rewriteStmtSubqueries(s)
	if err != nil {
		return nil, nil, err
	}
	if s.Union != nil {
		res, err := db.execUnion(s)
		return res, nil, err
	}
	return db.planSelectArm(s)
}

// execSelectArm runs one SELECT arm (no UNION handling) to its end.
func (db *Database) execSelectArm(s *SelectStmt) (*Result, error) {
	return drained(db.planSelectArm(s))
}

// planSelectArm opens one SELECT arm, dispatching to the batched columnar
// executor or — when rowExec is set — the seed row-at-a-time interpreter kept
// as its test oracle. DISTINCT, OFFSET and LIMIT of a plan that does not
// stream are shared between the two engines.
func (db *Database) planSelectArm(s *SelectStmt) (*Result, *stream, error) {
	s, err := db.rewriteStmtSubqueries(s)
	if err != nil {
		return nil, nil, err
	}
	var fp fromPlan // stays on the stack: point lookups plan on every call
	if err := db.planFrom(s, &fp); err != nil {
		return nil, nil, err
	}
	var out *Result
	switch p, streams := streamable(s, &fp); {
	case streams && db.rowExec:
		out, err = execStreamRows(s, &p)
		return out, nil, err
	case streams:
		return nil, db.newStream(s, &p), nil
	case db.rowExec:
		out, err = db.execSelectArmRows(s)
	default:
		out, err = db.execSelectArmVec(s, &fp)
	}
	if err != nil {
		return nil, nil, err
	}

	if s.Distinct {
		seen := make(map[string]bool, len(out.Rows))
		kept := out.Rows[:0:0]
		for _, row := range out.Rows {
			k := encodeKey(row)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		out.Rows = kept
	}

	if s.Offset > 0 {
		if s.Offset >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(out.Rows) {
		out.Rows = out.Rows[:s.Limit]
	}
	return out, nil, nil
}

// execStreamRows is the row-at-a-time rendering of a plan that streams, the
// oracle of rows.go's scan: live rows in slot order, each one filtered, then
// counted against OFFSET, then projected, until LIMIT rows are out. A row the
// walk does not reach is not evaluated, so it cannot fail the statement.
func execStreamRows(s *SelectStmt, p *streamPlan) (*Result, error) {
	res := &Result{}
	for i, it := range p.items {
		res.Columns = append(res.Columns, itemName(it, i))
	}
	if s.Limit == 0 {
		return res, nil
	}
	env := &evalEnv{cols: p.cols}
	skip := s.Offset
	var evalErr error
	p.t.scan(func(_ int64, row Row) bool {
		env.row = row
		if p.filter != nil {
			v, err := eval(p.filter, env)
			if err != nil {
				evalErr = err
				return false
			}
			if b, ok := v.Truthy(); !ok || !b {
				return true
			}
		}
		if skip > 0 {
			skip--
			return true
		}
		proj := make(Row, len(p.items))
		for i, it := range p.items {
			if proj[i], evalErr = eval(it.Expr, env); evalErr != nil {
				return false
			}
		}
		res.Rows = append(res.Rows, proj)
		return len(res.Rows) != s.Limit
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return res, nil
}

// execSelectArmRows is the seed row-at-a-time interpreter, retained as the
// oracle the batched executor is property-tested against.
func (db *Database) execSelectArmRows(s *SelectStmt) (*Result, error) {
	src, residual, err := db.buildFrom(s)
	if err != nil {
		return nil, err
	}

	// Residual WHERE conjuncts (those not pushed into scans).
	if len(residual) > 0 {
		env := src.env()
		kept := src.rows[:0:0]
		for _, row := range src.rows {
			env.row = row
			ok := true
			for _, conj := range residual {
				v, err := eval(conj, env)
				if err != nil {
					return nil, err
				}
				b, valid := v.Truthy()
				if !valid || !b {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, row)
			}
		}
		src.rows = kept
	}

	items, err := expandStars(s.Items, src.cols, src.names)
	if err != nil {
		return nil, err
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(items)
	if grouped {
		return db.execGrouped(s, items, src)
	}
	return db.execPlain(s, items, src)
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

// execPlain projects without grouping, handling ORDER BY.
func (db *Database) execPlain(s *SelectStmt, items []SelectItem, src *rel) (*Result, error) {
	res := &Result{}
	for i, it := range items {
		res.Columns = append(res.Columns, itemName(it, i))
	}
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
	res := &Result{}
	for i, it := range items {
		res.Columns = append(res.Columns, itemName(it, i))
	}

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

// scanSpec pairs one FROM/JOIN table reference with its resolved table.
type scanSpec struct {
	ref TableRef
	t   *Table
}

// fromPlan is a SELECT arm's FROM clause resolved: its tables, the combined
// binding list (with display names), the WHERE clause partitioned into
// per-binding pushed filters and residual conjuncts, and the select items with
// stars expanded. The zero fromPlan (no specs) is a SELECT without FROM.
type fromPlan struct {
	specs    []scanSpec
	allCols  []colBinding
	names    []string
	pushed   map[string][]Expr
	residual []Expr
	items    []SelectItem
}

// planFrom resolves s's FROM clause into fp; a SELECT without one leaves fp
// zero.
func (db *Database) planFrom(s *SelectStmt, fp *fromPlan) (err error) {
	if len(s.From) == 0 {
		return nil
	}
	if fp.specs, fp.allCols, fp.names, fp.pushed, fp.residual, err = db.fromSpecs(s); err != nil {
		return err
	}
	fp.items, err = expandStars(s.Items, fp.allCols, fp.names)
	return err
}

// fromSpecs resolves every FROM and JOIN table reference, builds the
// combined binding list (with display names), and partitions the WHERE
// clause into per-binding pushed filters and residual conjuncts. LEFT JOIN
// right sides keep their filters residual to preserve null-extension
// semantics. Shared by the row and batched executors.
func (db *Database) fromSpecs(s *SelectStmt) (specs []scanSpec, allCols []colBinding, names []string, pushed map[string][]Expr, residual []Expr, err error) {
	for _, tr := range s.From {
		t, terr := db.table(tr.Name)
		if terr != nil {
			return nil, nil, nil, nil, nil, terr
		}
		specs = append(specs, scanSpec{ref: tr, t: t})
	}
	for _, jc := range s.Joins {
		t, terr := db.table(jc.Table.Name)
		if terr != nil {
			return nil, nil, nil, nil, nil, terr
		}
		specs = append(specs, scanSpec{ref: jc.Table, t: t})
	}
	allCols = make([]colBinding, 0)
	seenBinding := make(map[string]bool)
	for _, sp := range specs {
		b := strings.ToLower(sp.ref.Binding())
		if seenBinding[b] {
			return nil, nil, nil, nil, nil, fmt.Errorf("sql: duplicate table binding %s", sp.ref.Binding())
		}
		seenBinding[b] = true
		for _, c := range sp.t.schema.Columns {
			allCols = append(allCols, colBinding{table: b, name: strings.ToLower(c.Name)})
			names = append(names, c.Name)
		}
	}

	// Partition WHERE conjuncts: pushable to a single binding vs residual.
	conjuncts := splitConjuncts(s.Where)
	pushed = make(map[string][]Expr)
	for _, conj := range conjuncts {
		if tbl, ok := singleBinding(conj, allCols); ok {
			pushed[tbl] = append(pushed[tbl], conj)
		} else {
			residual = append(residual, conj)
		}
	}

	// LEFT JOIN right sides must not have pushed filters applied before the
	// join (it would change null-extension semantics); move them back.
	for _, jc := range s.Joins {
		if jc.Kind == "LEFT" {
			b := strings.ToLower(jc.Table.Binding())
			residual = append(residual, pushed[b]...)
			delete(pushed, b)
		}
	}
	return specs, allCols, names, pushed, residual, nil
}

// buildFrom materialises the FROM relation and returns the WHERE conjuncts
// that were not pushed into scans.
func (db *Database) buildFrom(s *SelectStmt) (*rel, []Expr, error) {
	if len(s.From) == 0 {
		// SELECT without FROM: one empty row.
		return &rel{rows: []Row{{}}}, splitConjuncts(s.Where), nil
	}

	specs, _, _, pushed, residual, err := db.fromSpecs(s)
	if err != nil {
		return nil, nil, err
	}

	scanOne := func(sp scanSpec) (*rel, error) {
		b := strings.ToLower(sp.ref.Binding())
		filter := andAll(pushed[b])
		env := &evalEnv{}
		for _, c := range sp.t.schema.Columns {
			env.cols = append(env.cols, colBinding{table: b, name: strings.ToLower(c.Name)})
		}
		ids, err := matchingRowIDs(sp.t, filter, env)
		if err != nil {
			return nil, err
		}
		r := &rel{}
		for _, c := range sp.t.schema.Columns {
			r.cols = append(r.cols, colBinding{table: b, name: strings.ToLower(c.Name)})
			r.names = append(r.names, c.Name)
		}
		for _, id := range ids {
			if row, ok := sp.t.rowByID(id); ok {
				r.rows = append(r.rows, row)
			}
		}
		return r, nil
	}

	cur, err := scanOne(specs[0])
	if err != nil {
		return nil, nil, err
	}
	// Comma-joined FROM tables: cross products (residual WHERE applies later).
	for i := 1; i < len(s.From); i++ {
		right, err := scanOne(specs[i])
		if err != nil {
			return nil, nil, err
		}
		cur = crossJoin(cur, right)
	}
	// Explicit JOIN clauses.
	for ji, jc := range s.Joins {
		right, err := scanOne(specs[len(s.From)+ji])
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
	return cur, residual, nil
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
	out := &rel{
		cols:  append(append([]colBinding(nil), l.cols...), r.cols...),
		names: append(append([]string(nil), l.names...), r.names...),
	}
	return out
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
