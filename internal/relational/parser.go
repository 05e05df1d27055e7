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

// refuse is the error for a construct the engine does not have: the
// federation sends none of them (DESIGN §9), so naming it beats a confusing
// syntax error.
func (p *sqlParser) refuse(construct string) error {
	return fmt.Errorf("sql: %s is not supported (offset %d)", construct, p.peek().pos)
}

// parseSelect parses a SELECT: projection, at most one FROM table, WHERE,
// GROUP BY, HAVING, ORDER BY and LIMIT.
func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.peek().text == "DISTINCT" {
		return nil, p.refuse("SELECT DISTINCT")
	}
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
		s.From = &tr
		switch p.peek().text {
		case ",":
			return nil, p.refuse("a comma-separated FROM list (a join)")
		case "JOIN", "INNER", "LEFT", "CROSS":
			return nil, p.refuse("JOIN")
		}
	}
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
	if p.peek().text == "UNION" {
		return nil, p.refuse("UNION")
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
			s.OrderBy = append(s.OrderBy, item)
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
		s.Limit = n
	}
	if p.peek().text == "OFFSET" {
		return nil, p.refuse("OFFSET")
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
		return nil, p.refuse("INSERT ... SELECT")
	default:
		return nil, fmt.Errorf("sql: expected VALUES in INSERT, got %s", p.peek())
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

// ---- Expression parsing ----

// parseExpr parses a conjunction of comparisons: OR is refused, and so is
// NOT (parsePrimary), since what the federation sends is a conjunction.
func (p *sqlParser) parseExpr() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	if p.peek().text == "OR" {
		return nil, p.refuse("OR")
	}
	return l, nil
}

// parseComparison parses an operand and the comparisons, LIKEs and IN lists
// applied to it. A comparison or LIKE takes a column (or an aggregate call)
// and a literal, either way round, and an IN list takes literals: those are
// the predicates a fragment carries, and none of them can fail on a row.
func (p *sqlParser) parseComparison() (Expr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.text {
		case "=", "<", "<=", ">", ">=", "<>", "!=", "LIKE":
			p.next()
			r, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			b := &Binary{Op: op, L: l, R: r}
			if !(isKey(l) && isLiteral(r)) && !(isLiteral(l) && isKey(r)) {
				what := "a comparison"
				if op == "LIKE" {
					what = "LIKE"
				}
				return nil, p.refuse(what + " other than a column or an aggregate against a literal " + b.String())
			}
			l = b
		case "IN":
			p.next()
			if l, err = p.parseInTail(l); err != nil {
				return nil, err
			}
		case "NOT":
			switch n := p.peek2().text; n {
			case "LIKE", "IN", "BETWEEN":
				return nil, p.refuse("NOT " + n)
			}
			return l, nil
		case "IS":
			if p.peek2().text == "NOT" {
				return nil, p.refuse("IS NOT NULL")
			}
			return nil, p.refuse("IS NULL")
		case "BETWEEN":
			return nil, p.refuse("BETWEEN")
		default:
			return l, nil
		}
	}
}

// isKey reports whether e is a column or an aggregate call: the side of a
// comparison that is not the literal.
func isKey(e Expr) bool {
	switch e.(type) {
	case *ColRef, *FuncCall:
		return true
	}
	return false
}

func isLiteral(e Expr) bool { _, ok := e.(*Literal); return ok }

func (p *sqlParser) parseInTail(l Expr) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if p.peek().text == "SELECT" {
		return nil, p.refuse("a subquery")
	}
	in := &InList{X: l}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !isLiteral(e) {
			return nil, p.refuse("an IN item that is not a literal (" + e.String() + ")")
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

// parseOperand parses one side of a comparison: a literal, a column, an
// aggregate or a parenthesised expression, never arithmetic.
func (p *sqlParser) parseOperand() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch t := p.peek(); t.text {
	case "+", "-", "*", "/", "%", "||":
		return nil, p.refuse("arithmetic (" + t.text + ")")
	}
	return e, nil
}

// aggregateFuncs is the set of aggregate function names.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return numberLiteral(t.text)
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
			return nil, p.refuse("EXISTS")
		case "NOT":
			return nil, p.refuse("NOT")
		}
		return nil, fmt.Errorf("sql: unexpected keyword %s in expression (offset %d)", t.text, t.pos)
	case tokIdent:
		name := p.next().text
		if p.peek().text == "(" {
			up := strings.ToUpper(name)
			if !aggregateFuncs[up] {
				return nil, fmt.Errorf("sql: function %s is not supported (offset %d)", name, t.pos)
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
		switch t.text {
		case "-":
			// A negative number is a literal; any other operand of a
			// minus is arithmetic.
			if n := p.peek2(); n.kind == tokNumber {
				p.next()
				p.next()
				return numberLiteral("-" + n.text)
			}
			return nil, p.refuse("arithmetic (-)")
		case "(":
			p.next()
			if p.peek().text == "SELECT" {
				return nil, p.refuse("a subquery")
			}
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

// numberLiteral types a numeric literal's text: a float when it has a
// decimal point, an integer otherwise.
func numberLiteral(text string) (Expr, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %s", text)
		}
		return &Literal{Val: FloatValue(f)}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad number %s", text)
	}
	return &Literal{Val: IntValue(n)}, nil
}

func (p *sqlParser) parseFuncTail(name string) (Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
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
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("sql: aggregate %s takes exactly one argument", f.Name)
	}
	return f, nil
}
