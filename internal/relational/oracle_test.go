package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file is the test oracle: the engine's seed row-at-a-time interpreter,
// which the batched executor is checked against (exec_oracle_test.go). It
// evaluates every expression by walking its tree over one materialised row
// at a time. It shares the parser, the catalog, the plan (planFrom, which
// resolves every name), the operators (applyBinary), Compare and INSERT with
// the engine, but none of the
// compiled expressions (compile.go) nor the walk (rows.go, exec_vec.go):
// TestOracleSharesNoExecutor keeps it that way.

// oracleQuery runs a SELECT on the oracle, as Query runs it on the executor.
func (db *Database) oracleQuery(sql string) (*Result, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("oracle: %s is not a SELECT", describeStmt(stmt))
	}
	return db.oracleStmt(s)
}

// oracleStmt runs a parsed SELECT on the oracle under the read lock.
func (db *Database) oracleStmt(s *SelectStmt) (*Result, error) {
	if err := db.dialect.Check(s); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.oracleSelect(s)
}

// oracleSelect runs a SELECT: execSelectArmRows over its plan, then the
// LIMIT over what a blocking SELECT's operators built. It shares the plan's
// name resolution (planFrom), so the two fail alike on an unknown column or
// a misplaced aggregate.
func (db *Database) oracleSelect(s *SelectStmt) (*Result, error) {
	var fp fromPlan
	if err := db.planFrom(s, &fp); err != nil {
		return nil, err
	}
	block := blocking(s, fp.items)
	res, err := db.execSelectArmRows(s, &fp, block)
	if err != nil {
		return nil, err
	}
	if block && s.Limit >= 0 && s.Limit < len(res.Rows) {
		res.Rows = res.Rows[:s.Limit]
	}
	if len(res.Rows) == 0 {
		res.Rows = nil // as the executor returns no rows
	}
	return res, nil
}

// sortRows sorts rows stably by their ORDER BY keys, keys[i] being rows[i]'s.
func sortRows(rows, keys []Row, order []OrderItem) {
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return orderLess(keys[perm[i]], keys[perm[j]], order) })
	sorted := make([]Row, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	copy(rows, sorted)
}

// rel is an intermediate relation of the oracle: column bindings (for name
// resolution) and materialised rows.
type rel struct {
	cols []colBinding
	rows []Row
}

func (r *rel) env() *evalEnv { return &evalEnv{cols: r.cols} }

// evalEnv is the environment the oracle evaluates an expression in: the
// visible column bindings, the current row, and — in the aggregate phase —
// the group's aggregate results keyed by the aggregate's rendered text.
type evalEnv struct {
	cols []colBinding
	row  Row
	aggs map[string]Value // e.g. "COUNT(*)" -> value
}

// execSelectArmRows evaluates over the FROM rows in the executor's order —
// the table's rows that the plan's index access reaches, found by reading
// every slot — and walks them once: filter, then projection, stopping at the
// LIMIT. A blocking SELECT (block) keeps every row that passes the filter and
// returns its operators' whole output instead, before the LIMIT, which
// oracleSelect applies.
func (db *Database) execSelectArmRows(s *SelectStmt, fp *fromPlan, block bool) (*Result, error) {
	src, err := db.buildFrom(fp)
	if err != nil {
		return nil, err
	}
	filter := fp.scan.filter
	res := &Result{Columns: itemNames(fp.items)}
	env := src.env()
	limit := s.Limit
	if block {
		limit = -1
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

// execPlain projects without grouping, handling ORDER BY.
func (db *Database) execPlain(s *SelectStmt, items []SelectItem, src *rel) (*Result, error) {
	res := &Result{Columns: itemNames(items)}
	env := src.env()

	var keys []Row
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
		res.Rows = append(res.Rows, proj)
		if len(s.OrderBy) == 0 {
			continue
		}
		k, err := orderKeys(s.OrderBy, env, aliasOf, proj)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	if len(s.OrderBy) > 0 {
		sortRows(res.Rows, keys, s.OrderBy)
	}
	return res, nil
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
		// ORDER BY <n> selects the n-th output column; the plan
		// (resolveRefs) has checked that there is one.
		if lit, ok := oi.Expr.(*Literal); ok && lit.Val.Kind == TypeInt && !lit.Val.Null {
			keys[i] = proj[lit.Val.Int-1]
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
// zero rows, whose columns read NULL, per SQL).
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
	var keys []Row
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
			genv.row = slices.Repeat(Row{NullValue()}, len(src.cols))
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
		res.Rows = append(res.Rows, proj)
		if len(s.OrderBy) == 0 {
			continue
		}
		k, err := orderKeys(s.OrderBy, genv, aliasOf, proj)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	if len(s.OrderBy) > 0 {
		sortRows(res.Rows, keys, s.OrderBy)
	}
	return res, nil
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

// buildFrom materialises the oracle's FROM rows: the table's rows, or one
// empty row without FROM. It reads every slot whatever the plan's access:
// where the plan reads through an index, the oracle keeps the rows for which
// the conjuncts the access answers are TRUE, evaluated here, so it reaches
// the rows the executor's candidates should be without reading the index.
func (db *Database) buildFrom(fp *fromPlan) (*rel, error) {
	sp := &fp.scan
	if sp.t == nil {
		return &rel{rows: []Row{{}}}, nil
	}
	r := &rel{cols: fp.cols}
	env := r.env()
	var evalErr error
	sp.t.scan(func(_ int, row Row) bool {
		env.row = row
		for _, e := range sp.acc.conjs {
			v, err := eval(e, env)
			if err != nil {
				evalErr = err
				return false
			}
			if b, ok := v.Truthy(); !ok || !b {
				return true
			}
		}
		r.rows = append(r.rows, slices.Clone(row))
		return true
	})
	return r, evalErr
}

// eval evaluates an expression against the environment.
func eval(e Expr, env *evalEnv) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColRef:
		ord, err := resolveCol(env.cols, x)
		if err != nil {
			return Value{}, err
		}
		return env.row[ord], nil
	case *Binary:
		return evalBinary(x, env)
	case *InList:
		return evalIn(x, env)
	case *FuncCall:
		if v, ok := env.aggs[x.String()]; ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("sql: aggregate %s used outside aggregation context", x.Name)
	}
	return Value{}, fmt.Errorf("sql: cannot evaluate %T", e)
}

func evalBinary(x *Binary, env *evalEnv) (Value, error) {
	l, err := eval(x.L, env)
	if err != nil {
		return Value{}, err
	}
	// AND implements three-valued logic with short-circuiting.
	if x.Op == "AND" {
		lb, lok := l.Truthy()
		if lok && !lb {
			return BoolValue(false), nil
		}
		r, err := eval(x.R, env)
		if err != nil {
			return Value{}, err
		}
		rb, rok := r.Truthy()
		switch {
		case rok && !rb:
			return BoolValue(false), nil
		case lok && rok:
			return BoolValue(lb && rb), nil
		default:
			return NullValue(), nil
		}
	}
	r, err := eval(x.R, env)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(x.Op, l, r), nil
}

// evalIn evaluates the list's items in order, stopping at the first match.
func evalIn(x *InList, env *evalEnv) (Value, error) {
	v, err := eval(x.X, env)
	if err != nil {
		return Value{}, err
	}
	if v.Null {
		return NullValue(), nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := eval(item, env)
		if err != nil {
			return Value{}, err
		}
		if iv.Null {
			sawNull = true
			continue
		}
		if Compare(v, iv) == 0 {
			return BoolValue(true), nil
		}
	}
	if sawNull {
		return NullValue(), nil
	}
	return BoolValue(false), nil
}
