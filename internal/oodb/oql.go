package oodb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Query evaluates a small OQL-style query against the database:
//
//	SELECT * FROM ClassName
//	SELECT name, funding FROM Research DEEP WHERE field = 'aids' AND funding > 100000
//	SELECT name FROM Research WHERE name LIKE '%Hospital%'
//
// DEEP includes subclass instances. The WHERE clause is a conjunction of
// comparisons between an attribute and a literal (string, int, float, bool).
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
// is its candidates' object IDs as they stood at open — the class extent, or
// the objects an attribute index admitted (indexCandidates) — no lock and no
// scratch memory: each call takes the database's read lock, looks the next
// IDs up again and reads their attributes under it. An object deleted since
// open is passed over and one created since open is not in the list, so no
// object is returned twice, none that existed at open and still exists is
// skipped, and one updated in between is read as it is when the scan reaches
// it (so an index cursor passes over one updated out of its range, and never
// sees one updated into it).
type Rows struct {
	db     *DB
	class  *Class
	deep   bool
	cols   []string
	lcols  []string // cols, lower-cased: the attribute keys
	conds  []oqlCond
	lattrs []string // the conditions' attribute keys
	ids    []int64  // candidates at open, ascending; the scan resumes at ids[0]
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
	if sel.star {
		all := class.AllAttributes()
		r.cols = make([]string, len(all))
		for i, a := range all {
			r.cols[i] = a.Name
		}
	} else {
		for _, a := range r.cols {
			if _, ok := class.attribute(a); !ok {
				return nil, fmt.Errorf("oodb: class %s has no attribute %s", sel.class, a)
			}
		}
	}
	// Attribute keys are lowered once for the whole result, not per row.
	r.lcols = make([]string, len(r.cols))
	for i, c := range r.cols {
		r.lcols[i] = strings.ToLower(c)
	}
	r.lattrs = make([]string, len(r.conds))
	for i := range r.conds {
		r.lattrs[i] = strings.ToLower(r.conds[i].attr)
	}
	lclass := strings.ToLower(sel.class)
	var indexed bool
	if r.ids, indexed = db.indexCandidates(lclass, r.conds, r.lattrs); !indexed {
		// Extents are kept in creation order, which is ID order; sort anyway
		// if one is not, since the result's order is by ID.
		r.ids = slices.Clone(db.extents[lclass])
		if !slices.IsSorted(r.ids) {
			slices.Sort(r.ids)
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

// indexCandidates returns, ascending, the IDs of the objects an attribute
// index admits for conds: of the spans that the =, <, <=, > and >=
// conditions on an attribute with a literal of one kind bound (a literal of
// another kind matches none of those objects), the one holding the fewest
// objects, found by binary search. Every condition is still evaluated on
// every candidate. ok is false — walk the extent — when no condition is
// indexable or the best span holds more than a share of the extent. The
// caller holds the read lock.
func (db *DB) indexCandidates(class string, conds []oqlCond, lattrs []string) (ids []int64, ok bool) {
	var best *attrIndex
	var from, to int
	for i := range conds {
		c := &conds[i]
		rank := kindRank(c.val)
		if c.op == "LIKE" || c.op == "<>" || rank < 0 {
			continue
		}
		ix := db.index(class, lattrs[i])
		if ix.nan {
			continue
		}
		lo, hi := ix.span(conds, lattrs, lattrs[i], rank)
		if best == nil || hi-lo < to-from {
			best, from, to = ix, lo, hi
		}
	}
	if best == nil || to-from > max(len(db.extents[class])/indexShare, minScanStep) {
		return nil, false
	}
	ids = make([]int64, 0, to-from)
	for _, e := range best.entries[from:to] {
		ids = append(ids, e.id)
	}
	slices.Sort(ids)
	return ids, true
}

// span is the positions [from, to) of the entries whose values every
// =, <, <=, > and >= condition on attr with a literal of rank's kind admits.
func (ix *attrIndex) span(conds []oqlCond, lattrs []string, attr string, rank int) (from, to int) {
	e := ix.entries
	from = sort.Search(len(e), func(i int) bool { return kindRank(e[i].val) >= rank })
	to = sort.Search(len(e), func(i int) bool { return kindRank(e[i].val) > rank })
	for i := range conds {
		c := &conds[i]
		if lattrs[i] != attr || kindRank(c.val) != rank {
			continue
		}
		switch c.op {
		case "=":
			from, to = max(from, ix.at(c.val, false)), min(to, ix.at(c.val, true))
		case ">":
			from = max(from, ix.at(c.val, true))
		case ">=":
			from = max(from, ix.at(c.val, false))
		case "<":
			to = min(to, ix.at(c.val, false))
		case "<=":
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
func (r *Rows) Close() { r.ids = nil }

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
	at   []int // at[i]: position in Rows.ids of objs[i]
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
		need = len(r.ids)
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
	for pos < len(r.ids) {
		step := minScanStep
		if need > 0 {
			step = min(max(min(need, oqlChunk)*scanned/passed, minScanStep), oqlChunk)
		}
		hi := min(pos+step, len(r.ids))
		objs, at := sc.objs[:0], sc.at[:0]
		for i, id := range r.ids[pos:hi] {
			if o := r.db.objects[id]; o != nil && (r.deep || o.class == r.class) {
				objs, at = append(objs, o), append(at, pos+i)
			}
		}
		used = max(used, len(objs))
		r.db.chunks.Add(1)
		sel := filterChunk(objs, r.conds, r.lattrs, sc)
		take := min(len(sel), need)
		for i, lc := range r.lcols {
			for _, oi := range sel[:take] {
				ch.Cols[i] = append(ch.Cols[i], objs[oi].attrs[lc])
			}
		}
		ch.N += take
		need -= take
		if take < len(sel) {
			r.ids = r.ids[at[sel[take]]:]
			return false
		}
		scanned += hi - pos
		passed += len(sel)
		pos = hi
	}
	r.ids = nil
	return true
}

// filterChunk applies the WHERE conjunction to one chunk of objects and
// returns the indexes of those that pass, in order: each condition is
// evaluated over the surviving objects' attribute values as one value batch,
// so per-object overhead (key lowering, predicate closure calls) is paid once
// per condition per chunk instead of once per object. Objects lacking the
// attribute never match, as with Get.
func filterChunk(objs []*Object, conds []oqlCond, lattrs []string, sc *oqlScratch) []int {
	sel := sc.sel[:0]
	for oi := range objs {
		sel = append(sel, oi)
	}
	for ci := range conds {
		if len(sel) == 0 {
			break
		}
		c := &conds[ci]
		lattr := lattrs[ci]
		// Gather the attribute value batch for the surviving selection.
		k := 0
		for _, oi := range sel {
			v, ok := objs[oi].attrs[lattr]
			if !ok {
				continue
			}
			sel[k] = oi
			sc.vals[k] = v
			k++
		}
		sel = sel[:k]
		// Evaluate the condition over the batch.
		k = 0
		for i, oi := range sel {
			if c.matchValue(sc.vals[i]) {
				sel[k] = oi
				k++
			}
		}
		sel = sel[:k]
	}
	return sel
}

type oqlCond struct {
	attr string
	op   string // = <> < <= > >= LIKE
	val  any    // string, int64, float64, bool
}

func (c *oqlCond) match(o *Object) bool {
	v, ok := o.Get(c.attr)
	if !ok {
		return false
	}
	return c.matchValue(v)
}

// matchValue compares one already-fetched attribute value, the kernel shared
// by the per-object match and the batched filterExtent path.
func (c *oqlCond) matchValue(v any) bool {
	if c.op == "LIKE" {
		s, sok := v.(string)
		p, pok := c.val.(string)
		return sok && pok && oqlLike(s, p)
	}
	cmp, ok := oqlCompare(v, c.val)
	if !ok {
		return false
	}
	switch c.op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// MatchCond evaluates one OQL comparison against an already-fetched value,
// with exactly the engine's semantics (kind-mismatch is no-match, LIKE needs
// string on both sides). The federated planner uses it to compensate at the
// coordinator for conjuncts an object engine could not accept. op is one of
// = <> < <= > >= LIKE; lit is a string, int64, float64 or bool, as the OQL
// parser would have typed the literal.
func MatchCond(v any, op string, lit any) bool {
	c := oqlCond{op: op, val: lit}
	return c.matchValue(v)
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
			switch {
			case av < bv:
				return -1, true
			case av > bv:
				return 1, true
			default:
				return 0, true
			}
		case float64:
			return oqlCompare(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			switch {
			case av < bv:
				return -1, true
			case av > bv:
				return 1, true
			default:
				return 0, true
			}
		case int64:
			return oqlCompare(av, float64(bv))
		}
	}
	return 0, false
}

// oqlLike matches with % and _ wildcards, mirroring SQL LIKE.
func oqlLike(s, p string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

type oqlSelect struct {
	star  bool
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
		p.next()
		sel.star = true
	} else {
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
	return oqlCond{attr: attr.text, op: op, val: val}, nil
}
