package relational

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ParseSQL parses a single SQL statement (a trailing semicolon is allowed).
func ParseSQL(src string) (Statement, error) {
	stmts, err := ParseSQLScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// sqlParserPool recycles parser state (chiefly the token slice) across
// calls; parsing a statement then costs no token-array allocations once the
// pool is warm. Returned ASTs hold only strings, never tokens, so reuse
// cannot leak state between queries.
var (
	sqlParserPool = sync.Pool{New: func() any {
		sqlParserNews.Add(1)
		return &sqlParser{}
	}}
	sqlParserGets atomic.Uint64
	sqlParserNews atomic.Uint64
)

// ParserPoolStats reports pooled-parser reuse: a hit is a Get served from
// the pool, a miss is a Get that had to allocate fresh state.
type ParserPoolStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// SQLParserPoolStats snapshots the SQL parser pool counters.
func SQLParserPoolStats() ParserPoolStats {
	gets, news := sqlParserGets.Load(), sqlParserNews.Load()
	return ParserPoolStats{Hits: gets - news, Misses: news}
}

// ParseSQLScript parses a semicolon-separated sequence of statements.
func ParseSQLScript(src string) ([]Statement, error) {
	sqlParserGets.Add(1)
	p := sqlParserPool.Get().(*sqlParser)
	defer func() {
		clear(p.toks) // drop string references before pooling
		p.toks = p.toks[:0]
		p.pos = 0
		sqlParserPool.Put(p)
	}()
	toks, err := lexSQLInto(src, p.toks[:0])
	p.toks = toks
	if err != nil {
		return nil, err
	}
	p.pos = 0
	var stmts []Statement
	for {
		for p.peek().text == ";" {
			p.next()
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if t := p.peek(); t.kind != tokEOF && t.text != ";" {
			return nil, fmt.Errorf("sql: unexpected %s after statement", t)
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty input")
	}
	return stmts, nil
}

type sqlParser struct {
	toks []token
	pos  int
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }

func (p *sqlParser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *sqlParser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token if it matches text (keywords upper-cased).
func (p *sqlParser) accept(text string) bool {
	if p.peek().text == text {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("sql: expected %s, got %s (offset %d)", text, t, t.pos)
	}
	return nil
}

func (p *sqlParser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %s (offset %d)", t, t.pos)
	}
	return t.text, nil
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch p.peek().text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "CREATE":
		return p.parseCreate()
	case "EXPLAIN":
		p.next()
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	}
	t := p.peek()
	return nil, fmt.Errorf("sql: unexpected %s at start of statement (offset %d)", t, t.pos)
}

// parseSelect parses a full SELECT: a UNION chain of select cores followed
// by ORDER BY / LIMIT / OFFSET, which apply to the combined result.
func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	head, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	cur := head
	for p.accept("UNION") {
		all := p.accept("ALL")
		arm, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = arm
		cur.UnionAll = all
		cur = arm
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			head.OrderBy = append(head.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("LIMIT") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return nil, err
		}
		head.Limit = n
		if p.accept("OFFSET") {
			m, err := p.parseNonNegInt()
			if err != nil {
				return nil, err
			}
			head.Offset = m
		}
	}
	return head, nil
}

// parseSelectCore parses one SELECT arm up to and including HAVING.
func (p *sqlParser) parseSelectCore() (*SelectStmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept("DISTINCT")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(",") {
			break
		}
	}

	if p.accept("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, tr)
		for {
			switch {
			case p.accept(","):
				tr, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				s.From = append(s.From, tr)
			case p.peek().text == "JOIN" || p.peek().text == "INNER" ||
				p.peek().text == "LEFT" || p.peek().text == "CROSS":
				jc, err := p.parseJoin()
				if err != nil {
					return nil, err
				}
				s.Joins = append(s.Joins, jc)
			default:
				goto fromDone
			}
		}
	}
fromDone:

	if p.accept("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.accept("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *sqlParser) parseNonNegInt() (int, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sql: expected number, got %s (offset %d)", t, t.pos)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sql: expected non-negative integer, got %s", t.text)
	}
	return n, nil
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	if p.peek().text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.peek().kind == tokIdent && p.peek2().text == "." {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].text == "*" {
			tbl := p.next().text
			p.next() // .
			p.next() // *
			return SelectItem{Star: true, Table: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *sqlParser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.accept("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *sqlParser) parseJoin() (JoinClause, error) {
	kind := "INNER"
	switch {
	case p.accept("INNER"):
	case p.accept("LEFT"):
		kind = "LEFT"
		p.accept("OUTER")
	case p.accept("CROSS"):
		kind = "CROSS"
	}
	if err := p.expect("JOIN"); err != nil {
		return JoinClause{}, err
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return JoinClause{}, err
	}
	jc := JoinClause{Kind: kind, Table: tr}
	if kind != "CROSS" {
		if err := p.expect("ON"); err != nil {
			return JoinClause{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return JoinClause{}, err
		}
		jc.On = on
	}
	return jc, nil
}

func (p *sqlParser) parseInsert() (*InsertStmt, error) {
	if err := p.expect("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().text == "(" {
		p.next()
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept("VALUES"):
		for {
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.accept(",") {
				break
			}
		}
	case p.peek().text == "SELECT":
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
	default:
		return nil, fmt.Errorf("sql: expected VALUES or SELECT in INSERT, got %s", p.peek())
	}
	return ins, nil
}

func (p *sqlParser) parseCreate() (Statement, error) {
	if err := p.expect("CREATE"); err != nil {
		return nil, err
	}
	unique := p.accept("UNIQUE")
	switch {
	case p.accept("TABLE"):
		if unique {
			return nil, fmt.Errorf("sql: UNIQUE not valid on CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.accept("INDEX"):
		return p.parseCreateIndex(unique)
	}
	return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE, got %s", p.peek())
}

func (p *sqlParser) parseCreateTable() (*CreateTableStmt, error) {
	st := &CreateTableStmt{}
	if p.accept("IF") {
		if err := p.expect("NOT"); err != nil {
			return nil, err
		}
		if err := p.expect("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Schema.Name = name
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		if p.accept("PRIMARY") {
			if err := p.expect("KEY"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ord := st.Schema.ColIndex(col)
				if ord < 0 {
					return nil, fmt.Errorf("sql: PRIMARY KEY names unknown column %s", col)
				}
				st.Schema.PrimaryKey = append(st.Schema.PrimaryKey, ord)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef(&st.Schema)
			if err != nil {
				return nil, err
			}
			st.Schema.Columns = append(st.Schema.Columns, col)
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := st.Schema.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseColumnDef(sc *Schema) (Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Column{}, err
	}
	col := Column{Name: name}
	t := p.next()
	switch t.text {
	case "INT", "INTEGER":
		col.Type = TypeInt
	case "FLOAT", "REAL", "DOUBLE":
		col.Type = TypeFloat
	case "TEXT":
		col.Type = TypeText
	case "BOOLEAN":
		col.Type = TypeBool
	case "DATE":
		col.Type = TypeDate
	case "VARCHAR", "CHAR":
		col.Type = TypeText
		if p.accept("(") {
			n, err := p.parseNonNegInt()
			if err != nil {
				return Column{}, err
			}
			col.Size = n
			if err := p.expect(")"); err != nil {
				return Column{}, err
			}
		}
	default:
		return Column{}, fmt.Errorf("sql: unknown column type %s (offset %d)", t, t.pos)
	}
	for {
		switch {
		case p.accept("NOT"):
			if err := p.expect("NULL"); err != nil {
				return Column{}, err
			}
			col.NotNull = true
		case p.accept("PRIMARY"):
			if err := p.expect("KEY"); err != nil {
				return Column{}, err
			}
			sc.PrimaryKey = append(sc.PrimaryKey, len(sc.Columns))
			col.NotNull = true
		case p.accept("NULL"):
			// explicit nullable; no-op
		default:
			return col, nil
		}
	}
}

func (p *sqlParser) parseCreateIndex(unique bool) (*CreateIndexStmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: col, Unique: unique}, nil
}

// ---- Expression parsing (precedence climbing) ----

func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().text == "AND" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.text {
		case "=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
		case "<>", "!=":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "<>", L: l, R: r}
		case "LIKE":
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "LIKE", L: l, R: r}
		case "IS":
			p.next()
			negate := p.accept("NOT")
			if err := p.expect("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Negate: negate}
		case "NOT":
			// NOT LIKE / NOT IN / NOT BETWEEN
			if nxt := p.peek2().text; nxt == "LIKE" || nxt == "IN" || nxt == "BETWEEN" {
				p.next() // NOT
				switch p.next().text {
				case "LIKE":
					r, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					l = &Unary{Op: "NOT", X: &Binary{Op: "LIKE", L: l, R: r}}
				case "IN":
					in, err := p.parseInTail(l, true)
					if err != nil {
						return nil, err
					}
					l = in
				case "BETWEEN":
					b, err := p.parseBetweenTail(l, true)
					if err != nil {
						return nil, err
					}
					l = b
				}
				continue
			}
			return l, nil
		case "IN":
			p.next()
			in, err := p.parseInTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case "BETWEEN":
			p.next()
			b, err := p.parseBetweenTail(l, false)
			if err != nil {
				return nil, err
			}
			l = b
		default:
			return l, nil
		}
	}
}

func (p *sqlParser) parseInTail(l Expr, negate bool) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if p.peek().text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &Subquery{X: l, Select: sub, Negate: negate}, nil
	}
	in := &InList{X: l, Negate: negate}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *sqlParser) parseBetweenTail(l Expr, negate bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
}

func (p *sqlParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.text == "+" || t.text == "-" || t.text == "||" {
			p.next()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.text == "*" || t.text == "/" || t.text == "%" {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.accept("+") // unary plus is a no-op
	return p.parsePrimary()
}

// scalarFuncs is the set of recognised scalar function names.
var scalarFuncs = map[string]bool{
	"UPPER": true, "LOWER": true, "LENGTH": true, "ABS": true,
	"COALESCE": true, "SUBSTR": true, "TRIM": true, "ROUND": true,
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %s", t.text)
			}
			return &Literal{Val: FloatValue(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %s", t.text)
		}
		return &Literal{Val: IntValue(n)}, nil
	case tokString:
		p.next()
		return &Literal{Val: TextValue(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: NullValue()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: BoolValue(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: BoolValue(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			return p.parseFuncTail(t.text)
		case "EXISTS":
			p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &Subquery{Select: sub, Exists: true}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %s in expression (offset %d)", t.text, t.pos)
	case tokIdent:
		name := p.next().text
		if p.peek().text == "(" {
			up := strings.ToUpper(name)
			if !scalarFuncs[up] && !aggregateFuncs[up] {
				return nil, fmt.Errorf("sql: unknown function %s (offset %d)", name, t.pos)
			}
			return p.parseFuncTail(up)
		}
		if p.accept(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression (offset %d)", t, t.pos)
}

func (p *sqlParser) parseFuncTail(name string) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: strings.ToUpper(name)}
	if p.peek().text == "*" {
		p.next()
		f.Star = true
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if f.Name != "COUNT" {
			return nil, fmt.Errorf("sql: %s(*) is only valid for COUNT", f.Name)
		}
		return f, nil
	}
	f.Distinct = p.accept("DISTINCT")
	if p.peek().text != ")" {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if f.IsAggregate() && len(f.Args) != 1 {
		return nil, fmt.Errorf("sql: aggregate %s takes exactly one argument", f.Name)
	}
	return f, nil
}
