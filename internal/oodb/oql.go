package oodb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/relational"
)

// Query evaluates a small OQL-style query against the database:
//
//	SELECT name, funding FROM Research DEEP WHERE field = 'aids' AND funding > 100000
//	SELECT name FROM Research WHERE name LIKE '%Hospital%'
//
// DEEP includes subclass instances. The attributes are named (SELECT * is
// refused: a fragment names its columns). The WHERE clause is a conjunction
// of comparisons between an attribute and a literal (string, int, float,
// bool).
// It returns the projected column names and rows, in object ID order. This
// plays the role the ObjectStore/Ontos query APIs play in the paper's
// prototype. It is QueryRows drained under one hold of the read lock, so the
// result is a snapshot.
func Query(db *DB, q string) ([]string, [][]any, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, err := db.openRows(q)
	if err != nil {
		return nil, nil, err
	}
	nc := len(r.cols)
	ch := Chunk{Cols: make([][]any, nc)}
	var rows [][]any
	for done := false; !done; {
		done = r.next(&ch, oqlChunk)
		slab := make([]any, ch.N*nc)
		rows = slices.Grow(rows, ch.N)
		for j := 0; j < ch.N; j++ {
			row := slab[j*nc : (j+1)*nc : (j+1)*nc]
			for i := range row {
				row[i] = ch.Cols[i][j]
			}
			rows = append(rows, row)
		}
	}
	return r.cols, rows, nil
}

// Chunk is a column-major block of result rows in buffers the caller owns:
// Rows.Next fills Cols[c][:N] and reuses whatever capacity the vectors have.
type Chunk struct {
	Cols [][]any
	N    int
}

// Rows is a resumable iterator over one query's result, in object ID order.
// It is not safe for concurrent use. What it holds between two calls of Next
// is its candidate objects as they stood at open — the class extent, or the
// objects an attribute index admitted (indexCandidates) — and the slots its
// columns and conditions read, resolved at open; no lock and no scratch
// memory. Each call takes the database's read lock and reads the next
// candidates' values under it. An object deleted since open carries a dead
// mark and is passed over, and one created since open is not in the list, so
// no object is returned twice, none that existed at open and still exists is
// skipped, and one updated in between is read as it is when the scan reaches
// it (so an index cursor passes over one updated out of its range, and never
// sees one updated into it).
type Rows struct {
	db    *DB
	class *Class
	deep  bool
	cols  []string
	slots []int // the columns' slots in class's layout, which every subclass shares
	conds []oqlCond
	objs  []*Object // candidates at open, ascending by ID; the scan resumes at objs[0]
}

// QueryRows opens a query as an iterator; no object is read before Next.
func QueryRows(db *DB, q string) (*Rows, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.openRows(q)
}

// openRows parses q and fixes its candidates. The caller holds the lock.
func (db *DB) openRows(q string) (*Rows, error) {
	p := &oqlParser{toks: tokeniseOQL(q)}
	sel, err := p.parse()
	if err != nil {
		return nil, err
	}
	class, ok := db.classes[strings.ToLower(sel.class)]
	if !ok {
		return nil, fmt.Errorf("oodb: %s: no class %s", db.name, sel.class)
	}
	r := &Rows{db: db, class: class, deep: sel.deep, cols: sel.attrs, conds: sel.conds}
	// Columns and conditions are resolved to slots once for the whole
	// result, not per object. A subclass's layout extends the class's, so a
	// slot of the class is the same attribute in every object of a DEEP
	// extent; a condition on an attribute only subclasses declare has none.
	r.slots = make([]int, len(r.cols))
	for i, a := range r.cols {
		if r.slots[i], ok = class.slot(a); !ok {
			return nil, fmt.Errorf("oodb: class %s has no attribute %s", sel.class, a)
		}
	}
	for i := range r.conds {
		c := &r.conds[i]
		if c.slot, ok = class.slots[c.attr]; !ok {
			c.slot = -1
		}
	}
	lclass := strings.ToLower(sel.class)
	var indexed bool
	if r.objs, indexed = db.indexCandidates(lclass, r.conds); !indexed {
		// Extents are kept in creation order, which is ID order, and the walk
		// reads the extent in place: NewObject appends past the end of the
		// alias and Delete builds a new slice, so its objects never move. Sort
		// a copy if one is not in ID order, since the result's order is by ID.
		ext := db.extents[lclass]
		if r.objs = ext[:len(ext):len(ext)]; !slices.IsSortedFunc(r.objs, byID) {
			r.objs = slices.SortedFunc(slices.Values(ext), byID)
		}
	}
	return r, nil
}

// indexShare bounds what an attribute index may yield: a query reads its
// candidates from an index only when they are at most 1/indexShare of the
// class extent, or no more than one step of a scan (minScanStep). The list
// is gathered and sorted at open, where the extent walk is a copy and starts
// at once; past about an eighth of the extent the walk is the cheaper, and a
// range that covers most of the extent (v >= 0) must cost what a walk costs.
const indexShare = 8

// byID orders objects by ID.
func byID(a, b *Object) int { return cmp.Compare(a.id, b.id) }

// indexCandidates returns, by ascending ID, the objects an attribute index
// admits for conds: of the spans that the =, <, <=, > and >=
// conditions on an attribute with a literal of one kind bound (a literal of
// another kind matches none of those objects), the one holding the fewest
// objects, found by binary search. Every condition is still evaluated on
// every candidate. ok is false — walk the extent — when no condition is
// indexable or the best span holds more than a share of the extent. The
// caller holds the read lock.
func (db *DB) indexCandidates(class string, conds []oqlCond) (objs []*Object, ok bool) {
	var best *attrIndex
	var from, to int
	for i := range conds {
		c := &conds[i]
		rank := kindRank(c.val)
		if c.like || c.order == ltBit|gtBit || rank < 0 {
			continue
		}
		ix := db.index(class, c.attr)
		if ix.nan {
			continue
		}
		lo, hi := ix.span(conds, c.attr, rank)
		if best == nil || hi-lo < to-from {
			best, from, to = ix, lo, hi
		}
	}
	if best == nil || to-from > max(len(db.extents[class])/indexShare, minScanStep) {
		return nil, false
	}
	objs = make([]*Object, 0, to-from)
	for _, e := range best.entries[from:to] {
		objs = append(objs, e.o)
	}
	slices.SortFunc(objs, byID)
	return objs, true
}

// span is the positions [from, to) of the entries whose values every
// =, <, <=, > and >= condition on attr with a literal of rank's kind admits.
func (ix *attrIndex) span(conds []oqlCond, attr string, rank int) (from, to int) {
	e := ix.entries
	from = sort.Search(len(e), func(i int) bool { return kindRank(e[i].val) >= rank })
	to = sort.Search(len(e), func(i int) bool { return kindRank(e[i].val) > rank })
	for i := range conds {
		c := &conds[i]
		if c.like || c.attr != attr || kindRank(c.val) != rank {
			continue
		}
		switch c.order {
		case eqBit:
			from, to = max(from, ix.at(c.val, false)), min(to, ix.at(c.val, true))
		case gtBit:
			from = max(from, ix.at(c.val, true))
		case gtBit | eqBit:
			from = max(from, ix.at(c.val, false))
		case ltBit:
			to = min(to, ix.at(c.val, false))
		case ltBit | eqBit:
			to = min(to, ix.at(c.val, true))
		}
	}
	return from, max(from, to)
}

// at is the position of the first entry whose value sorts at or after v
// (after it, when past is set).
func (ix *attrIndex) at(v any, past bool) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c := ixCompare(ix.entries[i].val, v)
		return c > 0 || c == 0 && !past
	})
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.cols }

// Close ends the iteration: the scan never resumes.
func (r *Rows) Close() { r.objs = nil }

// Left is an upper bound on the rows Next has still to return: the candidates
// not visited yet, which writes can only make fewer.
func (r *Rows) Left() int { return len(r.objs) }

// Next fills ch, which must have one vector per result column, with the next
// rows of the result, at most most of them (most <= 0: all that are left), and
// reports whether they were the last: done is exact, so a consumer never has
// to ask again to learn that nothing follows. The last chunk may be empty (an
// object that was seen to follow can be deleted before the next call).
func (r *Rows) Next(ch *Chunk, most int) (done bool) {
	r.db.mu.RLock()
	defer r.db.mu.RUnlock()
	return r.next(ch, most)
}

// oqlChunk is the most objects one step of a scan looks at; scratch buffers
// of this size are pooled across calls. minScanStep is the fewest: the width
// of a cursor's first page, so an unfiltered first page is one step.
const (
	oqlChunk    = 1024
	minScanStep = 64
)

type oqlScratch struct {
	objs []*Object
	at   []int // at[i]: position in Rows.objs of objs[i]
	sel  []int
	vals []any
}

var oqlScratchPool = sync.Pool{New: func() any {
	return &oqlScratch{objs: make([]*Object, 0, oqlChunk), at: make([]int, 0, oqlChunk),
		sel: make([]int, 0, oqlChunk), vals: make([]any, oqlChunk)}
}}

// next is Next under the caller's hold of the read lock. When the page fills
// at the end of a step it looks ahead for one more object that passes, which
// is what makes done exact.
func (r *Rows) next(ch *Chunk, most int) (done bool) {
	ch.N = 0
	for i := range ch.Cols {
		ch.Cols[i] = ch.Cols[i][:0]
	}
	need := most
	if need <= 0 {
		need = len(r.objs)
	}
	sc := oqlScratchPool.Get().(*oqlScratch)
	used := 0 // the longest step: the scratch entries written
	defer func() {
		clear(sc.objs[:used]) // drop object and value references before pooling
		clear(sc.vals[:used])
		oqlScratchPool.Put(sc)
	}()
	// A step looks at as many objects as should yield the rows still wanted,
	// going by the share of objects that have passed so far.
	pos, scanned, passed := 0, 1, 1
	for pos < len(r.objs) {
		step := minScanStep
		if need > 0 {
			step = min(max(min(need, oqlChunk)*scanned/passed, minScanStep), oqlChunk)
		}
		hi := min(pos+step, len(r.objs))
		objs, at := sc.objs[:0], sc.at[:0]
		for i, o := range r.objs[pos:hi] {
			if !o.dead && (r.deep || o.class == r.class) {
				objs, at = append(objs, o), append(at, pos+i)
			}
		}
		used = max(used, len(objs))
		r.db.chunks.Add(1)
		sel := r.filter(objs, sc)
		take := min(len(sel), need)
		for i, slot := range r.slots {
			for _, oi := range sel[:take] {
				ch.Cols[i] = append(ch.Cols[i], objs[oi].vals[slot])
			}
		}
		ch.N += take
		need -= take
		if take < len(sel) {
			r.objs = r.objs[at[sel[take]]:]
			return false
		}
		scanned += hi - pos
		passed += len(sel)
		pos = hi
	}
	r.objs = nil
	return true
}

// filter applies the WHERE conjunction to one chunk of objects and returns
// the indexes of those that pass, in order: each condition gathers the
// surviving objects' values at its slot and keeps those it admits in one
// loop over the batch. Objects lacking the attribute never match, as with
// Get. A condition the queried class has no slot for reads the attribute by
// name from the objects of subclasses, which may declare it.
func (r *Rows) filter(objs []*Object, sc *oqlScratch) []int {
	sel := sc.sel[:0]
	for oi := range objs {
		sel = append(sel, oi)
	}
	for ci := range r.conds {
		if len(sel) == 0 {
			break
		}
		c := &r.conds[ci]
		k := 0
		for _, oi := range sel {
			var v any
			switch o := objs[oi]; {
			case c.slot >= 0:
				v = o.vals[c.slot]
			case o.class != r.class:
				v = o.value(c.attr)
			}
			if v != nil {
				sel[k], sc.vals[k] = oi, v
				k++
			}
		}
		sel = c.keep(sel[:k], sc.vals[:k])
	}
	return sel
}

// The orders a comparison admits between a value and the literal, as bits:
// = is eqBit, <> ltBit|gtBit, <= ltBit|eqBit, and so on.
const (
	ltBit uint8 = 1 << iota
	eqBit
	gtBit
)

// litKind is the kind of a condition's literal, which picks the loop that
// evaluates it.
type litKind uint8

const (
	litNone   litKind = iota // matches nothing: a LIKE whose pattern is not a string
	litInt                   // n, and f = float64(n) for float values
	litFloat                 // f
	litString                // s
	litBool                  // n: 0 or 1
	litLike                  // s: a LIKE pattern
)

// oqlCond is one WHERE comparison, decoded at parse so no row pays for its
// operator or literal again.
type oqlCond struct {
	attr  string // lower-cased
	val   any    // the literal: string, int64, float64 or bool
	s     string
	n     int64
	f     float64
	slot  int   // at open: attr's slot in the queried class, -1 when it has none
	like  bool  // LIKE, else a comparison
	order uint8 // a comparison's admitted orders (ltBit, eqBit, gtBit)
	kind  litKind
}

// newCond decodes a condition; op is one of = <> < <= > >= LIKE.
func newCond(attr, op string, val any) oqlCond {
	c := oqlCond{attr: strings.ToLower(attr), val: val, slot: -1}
	switch op {
	case "LIKE":
		c.like = true
		if p, ok := val.(string); ok {
			c.kind, c.s = litLike, p
		}
		return c
	case "=":
		c.order = eqBit
	case "<>":
		c.order = ltBit | gtBit
	case "<":
		c.order = ltBit
	case "<=":
		c.order = ltBit | eqBit
	case ">":
		c.order = gtBit
	case ">=":
		c.order = gtBit | eqBit
	}
	switch v := val.(type) {
	case int64:
		c.kind, c.n, c.f = litInt, v, float64(v)
	case float64:
		c.kind, c.f = litFloat, v
	case string:
		c.kind, c.s = litString, v
	case bool:
		c.kind = litBool
		if v {
			c.n = 1
		}
	}
	return c
}

// admits reports whether the comparison holds when the value compares with
// the literal as cmp (-1, 0 or 1) says.
func (c *oqlCond) admits(cmp int) bool { return c.order>>(cmp+1)&1 != 0 }

// keep narrows sel, whose entries hold the values vals, to those the
// condition matches, with the semantics of oqlCompare and
// relational.MatchLike: a value of another kind than the literal matches
// nothing (ints and floats compare as numbers), and LIKE needs a string on
// both sides. The literal's kind picks one typed loop per batch. It is the engine's one evaluator: the scan runs
// it over a chunk and matchValue over one value.
func (c *oqlCond) keep(sel []int, vals []any) []int {
	k := 0
	switch c.kind {
	case litInt, litFloat:
		for i, oi := range sel {
			var cmp int
			switch x := vals[i].(type) {
			case int64:
				if c.kind == litInt {
					cmp = compareNumbers(x, c.n)
				} else {
					cmp = compareNumbers(float64(x), c.f)
				}
			case float64:
				cmp = compareNumbers(x, c.f)
			default:
				continue
			}
			if c.admits(cmp) {
				sel[k] = oi
				k++
			}
		}
	case litString:
		for i, oi := range sel {
			if x, ok := vals[i].(string); ok && c.admits(strings.Compare(x, c.s)) {
				sel[k] = oi
				k++
			}
		}
	case litBool:
		for i, oi := range sel {
			if x, ok := vals[i].(bool); ok {
				var n int64
				if x {
					n = 1
				}
				if c.admits(compareNumbers(n, c.n)) {
					sel[k] = oi
					k++
				}
			}
		}
	case litLike:
		for i, oi := range sel {
			if x, ok := vals[i].(string); ok && relational.MatchLike(x, c.s) {
				sel[k] = oi
				k++
			}
		}
	}
	return sel[:k]
}

// matchValue compares one attribute value with the condition's literal.
func (c *oqlCond) matchValue(v any) bool {
	sel, vals := [1]int{}, [1]any{v}
	return len(c.keep(sel[:], vals[:])) == 1
}

// Cond is one OQL comparison decoded once, for evaluating outside a query:
// the federated planner compensates with it, at the coordinator, for
// conjuncts an object engine could not accept. It has exactly the engine's
// semantics (kind-mismatch is no-match, LIKE needs string on both sides).
type Cond struct{ c oqlCond }

// NewCond decodes a comparison. op is one of = <> < <= > >= LIKE; lit is a
// string, int64, float64 or bool, as the OQL parser would have typed the
// literal (any other literal matches nothing).
func NewCond(op string, lit any) *Cond { return &Cond{newCond("", op, lit)} }

// Match reports whether an already-fetched value satisfies the comparison.
func (c *Cond) Match(v any) bool { return c.c.matchValue(v) }

// compareNumbers is oqlCompare's order on two numbers of one type: a NaN is
// neither below nor above anything, so it compares equal.
func compareNumbers[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func oqlCompare(a, b any) (int, bool) {
	switch av := a.(type) {
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), true
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0, true
			case !av:
				return -1, true
			default:
				return 1, true
			}
		}
	case int64:
		switch bv := b.(type) {
		case int64:
			return compareNumbers(av, bv), true
		case float64:
			return compareNumbers(float64(av), bv), true
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			return compareNumbers(av, bv), true
		case int64:
			return compareNumbers(av, float64(bv)), true
		}
	}
	return 0, false
}

type oqlSelect struct {
	attrs []string
	class string
	deep  bool
	conds []oqlCond
}

type oqlTok struct {
	kind string // word, string, number, punct, eof
	text string
}

func tokeniseOQL(src string) []oqlTok {
	var toks []oqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			i++
			var sb strings.Builder
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, oqlTok{"string", sb.String()})
		case c >= '0' && c <= '9' || c == '-':
			start := i
			i++
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			toks = append(toks, oqlTok{"number", src[start:i]})
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := i
			for i < len(src) && (src[i] == '_' || src[i] >= 'a' && src[i] <= 'z' ||
				src[i] >= 'A' && src[i] <= 'Z' || src[i] >= '0' && src[i] <= '9') {
				i++
			}
			toks = append(toks, oqlTok{"word", src[start:i]})
		default:
			if i+1 < len(src) {
				two := src[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" {
					toks = append(toks, oqlTok{"punct", two})
					i += 2
					continue
				}
			}
			toks = append(toks, oqlTok{"punct", string(c)})
			i++
		}
	}
	return append(toks, oqlTok{kind: "eof"})
}

type oqlParser struct {
	toks []oqlTok
	pos  int
}

func (p *oqlParser) peek() oqlTok { return p.toks[p.pos] }

func (p *oqlParser) next() oqlTok {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *oqlParser) acceptWord(w string) bool {
	t := p.peek()
	if t.kind == "word" && strings.EqualFold(t.text, w) {
		p.next()
		return true
	}
	return false
}

func (p *oqlParser) parse() (*oqlSelect, error) {
	sel := &oqlSelect{}
	if !p.acceptWord("SELECT") {
		return nil, fmt.Errorf("oodb: query must begin with SELECT")
	}
	if p.peek().text == "*" {
		return nil, fmt.Errorf("oodb: SELECT * is not supported")
	}
	for {
		t := p.next()
		if t.kind != "word" {
			return nil, fmt.Errorf("oodb: expected attribute name, got %q", t.text)
		}
		sel.attrs = append(sel.attrs, t.text)
		if p.peek().text != "," {
			break
		}
		p.next()
	}
	if !p.acceptWord("FROM") {
		return nil, fmt.Errorf("oodb: expected FROM")
	}
	cls := p.next()
	if cls.kind != "word" {
		return nil, fmt.Errorf("oodb: expected class name, got %q", cls.text)
	}
	sel.class = cls.text
	if p.acceptWord("DEEP") {
		sel.deep = true
	}
	if p.acceptWord("WHERE") {
		for {
			cond, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			sel.conds = append(sel.conds, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
	}
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("oodb: unexpected %q after query", p.peek().text)
	}
	return sel, nil
}

func (p *oqlParser) parseCond() (oqlCond, error) {
	attr := p.next()
	if attr.kind != "word" {
		return oqlCond{}, fmt.Errorf("oodb: expected attribute in WHERE, got %q", attr.text)
	}
	var op string
	t := p.next()
	switch {
	case t.kind == "punct" && (t.text == "=" || t.text == "<" || t.text == "<=" ||
		t.text == ">" || t.text == ">=" || t.text == "<>"):
		op = t.text
	case t.kind == "word" && strings.EqualFold(t.text, "LIKE"):
		op = "LIKE"
	default:
		return oqlCond{}, fmt.Errorf("oodb: expected comparison operator, got %q", t.text)
	}
	lit := p.next()
	var val any
	switch lit.kind {
	case "string":
		val = lit.text
	case "number":
		if strings.Contains(lit.text, ".") {
			f, err := strconv.ParseFloat(lit.text, 64)
			if err != nil {
				return oqlCond{}, fmt.Errorf("oodb: bad number %q", lit.text)
			}
			val = f
		} else {
			n, err := strconv.ParseInt(lit.text, 10, 64)
			if err != nil {
				return oqlCond{}, fmt.Errorf("oodb: bad number %q", lit.text)
			}
			val = n
		}
	case "word":
		switch strings.ToLower(lit.text) {
		case "true":
			val = true
		case "false":
			val = false
		default:
			return oqlCond{}, fmt.Errorf("oodb: expected literal, got %q", lit.text)
		}
	default:
		return oqlCond{}, fmt.Errorf("oodb: expected literal, got %q", lit.text)
	}
	return newCond(attr.text, op, val), nil
}
