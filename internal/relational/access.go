package relational

import (
	"fmt"
	"slices"
)

// This file is the index chooser: which rows a scan reads, through which
// index, decided from the conjuncts that name only the scan's table.

// indexShare bounds what an index access may yield: a scan reads its rows
// through an index only when the candidates are at most 1/indexShare of the
// table's rows, or no more than one step of a walk (minScanStep). A candidate
// costs a read out of column order, and the candidate list is built and
// sorted at open, where the slot walk reads the columns in order and starts
// at once; past about an eighth of the table the walk is the cheaper, and a
// range that covers most of the table (v >= 0) must cost what a walk costs.
const indexShare = 8

// indexAccess is how a scan reaches its candidate rows through a
// single-column index: by looking up keys (an equality's, or a literal IN
// list's) or by seeking the key range its <, <=, > and >= conjuncts on the
// column bound. A row is a candidate exactly when every conjunct in conjs is
// TRUE for it: the bounds are taken only from literals that compare in the
// column's own order (keyOrder), so the index's order is theirs, and a range
// never holds NULL keys. So the walk over the candidates evaluates the whole
// filter on exactly the rows a walk over every slot lets through conjs.
type indexAccess struct {
	ix     *Index
	conjs  []Expr  // the conjuncts the access answers
	keys   []Value // a lookup's distinct keys, ascending; nil for a range
	lo, hi Value   // a range's bounds: lo is NULL (exclusive) when none is below
	loIncl bool
	hiIncl bool
	hasHi  bool
	n      int // candidates when planned
}

// keyOrder reports whether a literal compares with the values of a column of
// type typ in the order the column's index keeps them: both numeric, both
// strings (TEXT and DATE compare by their text), or the same kind. Compare
// orders other mixes by rendering (an INT 9 sorts after the text '10'), so a
// seek or lookup with such a literal would look in the wrong place.
func keyOrder(typ ColType, lit Value) bool {
	switch {
	case lit.Null:
		return false
	case isNumeric(typ):
		return isNumeric(lit.Kind)
	case typ == TypeText || typ == TypeDate:
		return lit.Kind == TypeText || lit.Kind == TypeDate
	}
	return lit.Kind == typ
}

// keyTerm is a conjunct in a shape an index answers, on column col: the
// column against a literal (op is the comparison with the column on its
// left), or IN a list.
type keyTerm struct {
	col int
	op  string // =, <, <=, >, >= or IN
	lit *Value // the literal, in the statement
	in  *InList
}

// flipped is a comparison with its operands swapped: 5 < v is v > 5.
var flipped = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// parseKeyTerm matches conj against the shapes a key term takes, resolving
// its column under cols.
func parseKeyTerm(cols []colBinding, conj Expr) (keyTerm, bool) {
	var kt keyTerm
	var col Expr
	switch x := conj.(type) {
	case *Binary:
		swapped, ok := flipped[x.Op]
		if !ok {
			return kt, false
		}
		if l, isLit := x.L.(*Literal); isLit {
			col, kt.op, kt.lit = x.R, swapped, &l.Val
		} else if r, isLit := x.R.(*Literal); isLit {
			col, kt.op, kt.lit = x.L, x.Op, &r.Val
		} else {
			return kt, false
		}
	case *InList:
		col, kt.op, kt.in = x.X, "IN", x
	default:
		return kt, false
	}
	cr, ok := col.(*ColRef)
	if !ok {
		return kt, false
	}
	ord, err := resolveCol(cols, cr)
	kt.col = ord
	return kt, err == nil
}

// lookupKeys is the distinct keys, ascending, an equality or IN term looks
// up in an index on a column of type typ: every literal but the NULLs an IN
// list may hold (they match nothing). ok is false when a literal is not in
// the column's key order.
func (kt *keyTerm) lookupKeys(typ ColType) (keys []Value, ok bool) {
	if kt.in == nil {
		return []Value{*kt.lit}, keyOrder(typ, *kt.lit)
	}
	keys = make([]Value, 0, len(kt.in.List))
	for _, item := range kt.in.List {
		l := item.(*Literal)
		switch {
		case l.Val.Null:
		case !keyOrder(typ, l.Val):
			return nil, false
		default:
			keys = append(keys, l.Val)
		}
	}
	slices.SortFunc(keys, Compare)
	return slices.CompactFunc(keys, func(a, b Value) bool { return Compare(a, b) == 0 }), true
}

// narrow intersects a's range with a range term's bounds, reporting whether
// the term was one (in the column's key order).
func (a *indexAccess) narrow(kt *keyTerm, typ ColType) bool {
	switch {
	case kt.op == "=" || kt.op == "IN" || !keyOrder(typ, *kt.lit):
		return false
	case kt.op == ">" || kt.op == ">=":
		a.raiseLo(kt.lit, kt.op == ">=")
	default:
		a.lowerHi(kt.lit, kt.op == "<=")
	}
	return true
}

func (a *indexAccess) raiseLo(v *Value, incl bool) {
	if c := Compare(*v, a.lo); c > 0 || c == 0 && !incl {
		a.lo, a.loIncl = *v, incl
	}
}

func (a *indexAccess) lowerHi(v *Value, incl bool) {
	if !a.hasHi {
		a.hi, a.hiIncl, a.hasHi = *v, incl, true
	} else if c := Compare(*v, a.hi); c < 0 || c == 0 && !incl {
		a.hi, a.hiIncl = *v, incl
	}
}

// hiBound is the range's upper bound for btree.Range (nil: none).
func (a *indexAccess) hiBound() *Value {
	if !a.hasHi {
		return nil
	}
	return &a.hi
}

// chooseIndex sets best to the index access a scan of t whose filter
// includes conjs (naming only t's columns, under cols) reads its rows
// through: of the lookups the equalities and literal IN lists on indexed
// columns allow and the range each such column's range terms bound, the one
// with the fewest candidates, counted from the index without reading them.
// It sets no access — read every slot — when there is none or the best
// yields more than a share of the table (indexShare). The access is written
// in place rather than returned, and key terms point at the statement's
// literals rather than copy them: the planner runs on every open, and a
// deeper stack there costs a request goroutine a stack growth.
func chooseIndex(t *Table, cols []colBinding, conjs []Expr, best *indexAccess) {
	*best = indexAccess{}
	var a indexAccess
	for i, conj := range conjs {
		kt, ok := parseKeyTerm(cols, conj)
		if !ok {
			continue
		}
		if a.ix = t.singleColIndex(kt.col); a.ix == nil {
			continue
		}
		typ := t.schema.Columns[kt.col].Type
		if kt.op == "=" || kt.op == "IN" {
			ok = a.lookup(conj, &kt, typ)
		} else {
			// The range of the column's first range term: every later one
			// narrows it (an earlier one would have been first). A later
			// term starts a range of fewer bounds, never a smaller one.
			ok = a.rangeFrom(cols, conjs[i:], kt.col, typ)
		}
		if ok && (best.ix == nil || a.n < best.n) {
			*best = a
		}
	}
	if best.ix != nil && best.n > max(t.Len()/indexShare, minScanStep) {
		*best = indexAccess{}
	}
}

// lookup sets a, whose index is set, to the lookup of an equality or IN term,
// reporting whether the term's keys are in the column's key order.
func (a *indexAccess) lookup(conj Expr, kt *keyTerm, typ ColType) bool {
	keys, ok := kt.lookupKeys(typ)
	if !ok {
		return false
	}
	*a = indexAccess{ix: a.ix, conjs: []Expr{conj}, keys: keys}
	for _, k := range keys {
		a.n += len(a.ix.tree.Lookup(k))
	}
	return true
}

// rangeFrom sets a, whose index is set, to the range that the range terms on
// column col among conjs bound, counted, reporting whether there was one in
// the column's key order.
func (a *indexAccess) rangeFrom(cols []colBinding, conjs []Expr, col int, typ ColType) bool {
	*a = indexAccess{ix: a.ix, lo: NullValue()}
	for _, c := range conjs {
		if kt, ok := parseKeyTerm(cols, c); ok && kt.col == col && a.narrow(&kt, typ) {
			a.conjs = append(a.conjs, c)
		}
	}
	a.n = a.ix.tree.count(&a.lo, a.hiBound(), a.loIncl, a.hiIncl)
	return a.conjs != nil
}

// slots is the candidates' slots, ascending.
func (a *indexAccess) slots() []int {
	slots := make([]int, 0, a.n)
	if a.keys != nil {
		for _, k := range a.keys {
			slots = append(slots, a.ix.tree.Lookup(k)...)
		}
	} else {
		a.ix.tree.Range(&a.lo, a.hiBound(), a.loIncl, a.hiIncl, func(_ Value, rows []int) bool {
			slots = append(slots, rows...)
			return true
		})
	}
	slices.Sort(slots)
	return slots
}

// describe renders the access to t for EXPLAIN: "index lookup r_v(v)",
// "index probe r_v(v) IN 20 keys" or "index range r_v(v) [100, 172)".
func (a *indexAccess) describe(t *Table) string {
	name := fmt.Sprintf("%s(%s)", a.ix.Name, t.schema.Columns[a.ix.Cols[0]].Name)
	if a.keys != nil {
		if _, in := a.conjs[0].(*InList); in {
			return fmt.Sprintf("index probe %s IN %d keys", name, len(a.keys))
		}
		return "index lookup " + name
	}
	lo, hi := "(-inf", "inf)"
	if !a.lo.Null {
		lo = "("
		if a.loIncl {
			lo = "["
		}
		lo += (&Literal{Val: a.lo}).String()
	}
	if a.hasHi {
		hi = ")"
		if a.hiIncl {
			hi = "]"
		}
		hi = (&Literal{Val: a.hi}).String() + hi
	}
	return fmt.Sprintf("index range %s %s, %s", name, lo, hi)
}
