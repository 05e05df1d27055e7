package wtl

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// parserPool recycles parser state (chiefly the token slice) across Parse
// calls — the WTL gateway parses every inbound statement, so token arrays
// are the parser's dominant allocation. Parsed statements retain only
// strings, never tokens, so reuse cannot leak state between statements.
var (
	parserPool = sync.Pool{New: func() any {
		parserNews.Add(1)
		return &parser{}
	}}
	parserGets atomic.Uint64
	parserNews atomic.Uint64
)

// ParserPoolStats reports pooled-parser reuse: a hit is a Get served from
// the pool, a miss is a Get that had to allocate fresh state.
type ParserPoolStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// PoolStats snapshots the WTL parser pool counters.
func PoolStats() ParserPoolStats {
	gets, news := parserGets.Load(), parserNews.Load()
	return ParserPoolStats{Hits: gets - news, Misses: news}
}

// Parse parses one WebTassili statement (a trailing semicolon is optional,
// matching the paper's examples which are inconsistent about it). Keywords
// are case-insensitive; names may span several words, as in
// `Display Document Of Instance Royal Brisbane Hospital Of Class Research;`.
func Parse(src string) (Stmt, error) {
	parserGets.Add(1)
	p := parserPool.Get().(*parser)
	defer func() {
		clear(p.toks) // drop string references before pooling
		p.toks = p.toks[:0]
		p.pos = 0
		parserPool.Put(p)
	}()
	toks, err := lexInto(src, p.toks[:0])
	p.toks = toks
	if err != nil {
		return nil, err
	}
	p.pos = 0
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if t := p.peek(); t.kind != kEOF {
		return nil, fmt.Errorf("wtl: unexpected %q after statement", t.text)
	}
	return stmt, nil
}

// ParseScript parses a WebTassili script: statements each ended by ";" (the
// last one's is optional), so a statement may span lines and a line may hold
// several. A node's space script and wtsh read statements this way.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for p.peek().kind != kEOF {
		if p.accept(";") {
			continue
		}
		stmt, err := p.parseStmt()
		if err == nil && p.peek().kind != kEOF && !p.accept(";") {
			err = fmt.Errorf("wtl: expected \";\", got %q", p.peek().text)
		}
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", len(stmts)+1, err)
		}
		stmts = append(stmts, stmt)
	}
	return stmts, nil
}

type tkind byte

const (
	kEOF tkind = iota
	kWord
	kString
	kPunct
)

type tok struct {
	kind tkind
	text string
}

func lex(src string) ([]tok, error) {
	return lexInto(src, nil)
}

// lexInto tokenises into a caller-provided buffer (reset to length zero),
// letting pooled parsers reuse their token arrays across statements.
func lexInto(src string, toks []tok) ([]tok, error) {
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"' || c == '\'':
			quote := c
			i++
			var sb strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("wtl: unterminated string literal")
				}
				if src[i] == quote {
					// Doubled quote escapes itself (the paper uses '' inside
					// string literals).
					if i+1 < len(src) && src[i+1] == quote {
						sb.WriteByte(quote)
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, tok{kString, sb.String()})
		case isWordChar(c):
			start := i
			for i < len(src) && isWordChar(src[i]) {
				i++
			}
			toks = append(toks, tok{kWord, src[start:i]})
		default:
			if i+1 < len(src) {
				two := src[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, tok{kPunct, two})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', ';', '=', '<', '>', '.', '{', '}':
				toks = append(toks, tok{kPunct, string(c)})
				i++
			default:
				return nil, fmt.Errorf("wtl: unexpected character %q", c)
			}
		}
	}
	return append(toks, tok{kind: kEOF}), nil
}

func isWordChar(c byte) bool {
	return c == '_' || c == '-' || c >= '0' && c <= '9' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

type parser struct {
	toks []tok
	pos  int
}

func (p *parser) peek() tok { return p.toks[p.pos] }

func (p *parser) next() tok {
	t := p.toks[p.pos]
	if t.kind != kEOF {
		p.pos++
	}
	return t
}

// acceptWord consumes a keyword (case-insensitive).
func (p *parser) acceptWord(w string) bool {
	t := p.peek()
	if t.kind == kWord && strings.EqualFold(t.text, w) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectWord(w string) error {
	if !p.acceptWord(w) {
		return fmt.Errorf("wtl: expected %q, got %q", w, p.peek().text)
	}
	return nil
}

func (p *parser) accept(text string) bool {
	if p.peek().text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("wtl: expected %q, got %q", text, p.peek().text)
	}
	return nil
}

// name reads a multi-word name: a quoted string, or consecutive words until
// one of the stop keywords, ";" or EOF. Returns an error when empty.
func (p *parser) name(what string, stops ...string) (string, error) {
	if p.peek().kind == kString {
		return p.next().text, nil
	}
	stopSet := make(map[string]bool, len(stops))
	for _, s := range stops {
		stopSet[strings.ToLower(s)] = true
	}
	var words []string
	for {
		t := p.peek()
		if t.kind != kWord || stopSet[strings.ToLower(t.text)] {
			break
		}
		words = append(words, p.next().text)
	}
	if len(words) == 0 {
		return "", fmt.Errorf("wtl: expected %s, got %q", what, p.peek().text)
	}
	return strings.Join(words, " "), nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.kind != kWord {
		return nil, fmt.Errorf("wtl: expected statement, got %q", t.text)
	}
	switch strings.ToLower(t.text) {
	case "find":
		p.next()
		if err := p.expectWord("Coalitions"); err != nil {
			return nil, err
		}
		if err := p.expectWord("With"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Information"); err != nil {
			return nil, err
		}
		topic, err := p.name("information topic")
		if err != nil {
			return nil, err
		}
		return &FindCoalitions{Topic: topic}, nil
	case "connect":
		p.next()
		if err := p.expectWord("To"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Coalition"); err != nil {
			return nil, err
		}
		name, err := p.name("coalition name")
		if err != nil {
			return nil, err
		}
		return &Connect{Coalition: name}, nil
	case "display":
		p.next()
		return p.parseDisplay()
	case "search":
		p.next()
		if err := p.expectWord("Type"); err != nil {
			return nil, err
		}
		name, err := p.name("type name", "With")
		if err != nil {
			return nil, err
		}
		st := &SearchType{TypeName: name}
		if p.acceptWord("With") {
			if err := p.expectWord("Structure"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for p.acceptWord("attribute") {
				typ := p.next()
				if typ.kind != kWord {
					return nil, fmt.Errorf("wtl: expected attribute type, got %q", typ.text)
				}
				col, err := p.qualifiedColumn()
				if err != nil {
					return nil, err
				}
				st.Structure = append(st.Structure, Member{Type: typ.text, Name: col})
				p.accept(";")
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if len(st.Structure) == 0 {
				return nil, fmt.Errorf("wtl: With Structure requires at least one attribute")
			}
		}
		return st, nil
	case "query":
		p.next()
		source, err := p.name("source name", "Using")
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("Using"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Native"); err != nil {
			return nil, err
		}
		if p.peek().kind != kString {
			return nil, fmt.Errorf("wtl: expected quoted native query, got %q", p.peek().text)
		}
		return &NativeQuery{Source: source, Text: p.next().text}, nil
	case "create":
		p.next()
		return p.parseCreate()
	case "join":
		p.next()
		if err := p.expectWord("Coalition"); err != nil {
			return nil, err
		}
		name, err := p.name("coalition name", "At")
		if err != nil {
			return nil, err
		}
		j := &JoinCoalition{Coalition: name}
		if p.acceptWord("At") {
			if j.At, err = p.name("co-database reference"); err != nil {
				return nil, err
			}
		}
		return j, nil
	case "leave":
		p.next()
		if err := p.expectWord("Coalition"); err != nil {
			return nil, err
		}
		name, err := p.name("coalition name")
		if err != nil {
			return nil, err
		}
		return &LeaveCoalition{Coalition: name}, nil
	default:
		// Exported-function invocation: Word '(' ...
		if p.toks[p.pos+1].text == "(" {
			return p.parseFuncQuery()
		}
		return nil, fmt.Errorf("wtl: unknown statement starting with %q", t.text)
	}
}

func (p *parser) parseDisplay() (Stmt, error) {
	switch {
	case p.acceptWord("Coalitions"):
		return &DisplayCoalitions{}, nil
	case p.acceptWord("Service"):
		if err := p.expectWord("Links"); err != nil {
			return nil, err
		}
		return &DisplayLinks{}, nil
	case p.acceptWord("Links"):
		return &DisplayLinks{}, nil
	case p.acceptWord("SubClasses"):
		if err := p.expectWord("Of"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Class"); err != nil {
			return nil, err
		}
		name, err := p.name("class name")
		if err != nil {
			return nil, err
		}
		return &DisplaySubClasses{Class: name}, nil
	case p.acceptWord("Instances"):
		if err := p.expectWord("Of"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Class"); err != nil {
			return nil, err
		}
		name, err := p.name("class name")
		if err != nil {
			return nil, err
		}
		return &DisplayInstances{Class: name}, nil
	case p.acceptWord("Document") || p.acceptWord("Documentation"):
		if err := p.expectWord("Of"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Instance"); err != nil {
			return nil, err
		}
		inst, err := p.name("instance name", "Of")
		if err != nil {
			return nil, err
		}
		d := &DisplayDocument{Instance: inst}
		if p.acceptWord("Of") {
			if err := p.expectWord("Class"); err != nil {
				return nil, err
			}
			cls, err := p.name("class name")
			if err != nil {
				return nil, err
			}
			d.Class = cls
		}
		return d, nil
	case p.acceptWord("Access"):
		if err := p.expectWord("Information"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Of"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Instance"); err != nil {
			return nil, err
		}
		inst, err := p.name("instance name")
		if err != nil {
			return nil, err
		}
		return &DisplayAccessInfo{Instance: inst}, nil
	case p.acceptWord("Interface"):
		if err := p.expectWord("Of"); err != nil {
			return nil, err
		}
		if err := p.expectWord("Instance"); err != nil {
			return nil, err
		}
		inst, err := p.name("instance name")
		if err != nil {
			return nil, err
		}
		return &DisplayInterface{Instance: inst}, nil
	}
	return nil, fmt.Errorf("wtl: expected SubClasses, Instances, Document, Access or Interface after Display, got %q", p.peek().text)
}

func (p *parser) parseCreate() (Stmt, error) {
	switch {
	case p.acceptWord("Coalition"):
		name, err := p.name("coalition name", "Under", "Description")
		if err != nil {
			return nil, err
		}
		c := &CreateCoalition{Name: name}
		if p.acceptWord("Under") {
			parent, err := p.name("parent coalition", "Description")
			if err != nil {
				return nil, err
			}
			c.Parent = parent
		}
		if p.acceptWord("Description") {
			if p.peek().kind != kString {
				return nil, fmt.Errorf("wtl: expected quoted description, got %q", p.peek().text)
			}
			c.Description = p.next().text
		}
		return c, nil
	case p.acceptWord("Service"):
		if err := p.expectWord("Link"); err != nil {
			return nil, err
		}
		name, err := p.name("link name", "From")
		if err != nil {
			return nil, err
		}
		l := &CreateLink{Name: name}
		if err := p.expectWord("From"); err != nil {
			return nil, err
		}
		l.FromKind, err = p.kindWord()
		if err != nil {
			return nil, err
		}
		l.From, err = p.name("link origin", "To")
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("To"); err != nil {
			return nil, err
		}
		l.ToKind, err = p.kindWord()
		if err != nil {
			return nil, err
		}
		l.To, err = p.name("link target", "At", "Information", "Description")
		if err != nil {
			return nil, err
		}
		if p.acceptWord("At") {
			if l.At, err = p.name("co-database reference", "Information", "Description"); err != nil {
				return nil, err
			}
		}
		if p.acceptWord("Information") {
			if l.InfoType, err = p.name("information type", "Description"); err != nil {
				return nil, err
			}
		}
		if p.acceptWord("Description") {
			if p.peek().kind != kString {
				return nil, fmt.Errorf("wtl: expected quoted description, got %q", p.peek().text)
			}
			l.Description = p.next().text
		}
		return l, nil
	}
	return nil, fmt.Errorf("wtl: expected Coalition or Service Link after Create, got %q", p.peek().text)
}

func (p *parser) kindWord() (string, error) {
	switch {
	case p.acceptWord("Coalition"):
		return "coalition", nil
	case p.acceptWord("Database"):
		return "database", nil
	}
	return "", fmt.Errorf("wtl: expected Coalition or Database, got %q", p.peek().text)
}

// parseFuncQuery parses
//
//	Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) [On <source>] [Limit <n>];
func (p *parser) parseFuncQuery() (Stmt, error) {
	fn := p.next().text
	if err := p.expect("("); err != nil {
		return nil, err
	}
	argCol, err := p.qualifiedColumn()
	if err != nil {
		return nil, err
	}
	q := &FuncQuery{Function: fn, ArgCol: argCol}
	if p.accept(",") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			cond, err := p.condition()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.acceptWord("On") {
		if p.acceptWord("Coalition") {
			q.OnCoalition = true
		}
		src, err := p.sourceName()
		if err != nil {
			return nil, err
		}
		q.Source = src
	}
	if p.semiJoinAhead() {
		if !q.OnCoalition {
			return nil, fmt.Errorf("wtl: SemiJoin requires the outer query to target a coalition (On Coalition <name>)")
		}
		p.next() // SemiJoin
		join, err := p.parseSemiJoin()
		if err != nil {
			return nil, err
		}
		q.Join = join
	}
	if p.limitAhead() {
		p.next() // Limit
		n, err := strconv.Atoi(p.next().text)
		if err != nil {
			return nil, fmt.Errorf("wtl: invalid Limit count: %v", err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("wtl: Limit must be positive, got %d", n)
		}
		q.Limit = n
	}
	return q, nil
}

// parseSemiJoin parses the join clause body after the SemiJoin keyword:
//
//	Fn(Col[, (preds)]) On Coalition <name>
//
// Both join sides must be coalition queries — the operator exists to
// correlate across members, so a single-source side has nothing to prune.
// Nesting is rejected by the top-level parser: a second SemiJoin keyword
// after the inner source is a trailing token.
func (p *parser) parseSemiJoin() (*SemiJoin, error) {
	fn := p.next()
	if fn.kind != kWord || p.peek().text != "(" {
		return nil, fmt.Errorf("wtl: expected function invocation after SemiJoin, got %q", fn.text)
	}
	p.next() // (
	argCol, err := p.qualifiedColumn()
	if err != nil {
		return nil, err
	}
	j := &SemiJoin{Function: fn.text, ArgCol: argCol}
	if p.accept(",") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			cond, err := p.condition()
			if err != nil {
				return nil, err
			}
			j.Preds = append(j.Preds, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expectWord("On"); err != nil {
		return nil, err
	}
	if err := p.expectWord("Coalition"); err != nil {
		return nil, fmt.Errorf("wtl: SemiJoin side must target a coalition: %v", err)
	}
	src, err := p.sourceName()
	if err != nil {
		return nil, err
	}
	j.Source = src
	return j, nil
}

// sourceName reads the multi-word On-clause target: a quoted string, or
// consecutive words up to the trailing Limit clause, a SemiJoin clause, ";"
// or EOF. Unlike the generic name() helper it uses lookahead shapes rather
// than bare stop words, so a source whose name merely contains the word
// "Limit" or "SemiJoin" keeps parsing as a name and the printed form stays
// a parse fixed point.
func (p *parser) sourceName() (string, error) {
	if p.peek().kind == kString {
		return p.next().text, nil
	}
	var words []string
	for {
		t := p.peek()
		if t.kind != kWord || p.limitAhead() || p.semiJoinAhead() {
			break
		}
		words = append(words, p.next().text)
	}
	if len(words) == 0 {
		return "", fmt.Errorf("wtl: expected source name, got %q", p.peek().text)
	}
	return strings.Join(words, " "), nil
}

// semiJoinAhead reports whether the tokens at the cursor spell a join
// clause: the word "SemiJoin", then a function invocation (word + "(").
// The three-token shape disambiguates a source named "SemiJoin Services"
// from the operator while scanning multi-word source names.
func (p *parser) semiJoinAhead() bool {
	t := p.peek()
	if t.kind != kWord || !strings.EqualFold(t.text, "SemiJoin") {
		return false
	}
	fn := p.toks[p.pos+1]
	if fn.kind != kWord {
		return false
	}
	open := p.toks[p.pos+2]
	return open.kind == kPunct && open.text == "("
}

// limitAhead reports whether the tokens at the cursor spell a Limit clause:
// the word "Limit", a digits-only count, then end of statement. The
// three-token shape is required so the clause can be recognised without
// ambiguity while scanning multi-word source names.
func (p *parser) limitAhead() bool {
	t := p.peek()
	if t.kind != kWord || !strings.EqualFold(t.text, "Limit") {
		return false
	}
	n := p.toks[p.pos+1]
	if n.kind != kWord || !allDigits(n.text) {
		return false
	}
	end := p.toks[p.pos+2]
	return end.kind == kEOF || end.kind == kPunct && end.text == ";"
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func (p *parser) qualifiedColumn() (string, error) {
	t := p.next()
	if t.kind != kWord {
		return "", fmt.Errorf("wtl: expected column, got %q", t.text)
	}
	col := t.text
	for p.accept(".") {
		part := p.next()
		if part.kind != kWord {
			return "", fmt.Errorf("wtl: expected identifier after '.', got %q", part.text)
		}
		col += "." + part.text
	}
	return col, nil
}

func (p *parser) condition() (Condition, error) {
	col, err := p.qualifiedColumn()
	if err != nil {
		return Condition{}, err
	}
	var op string
	t := p.next()
	switch {
	case t.kind == kPunct && (t.text == "=" || t.text == "<" || t.text == "<=" ||
		t.text == ">" || t.text == ">=" || t.text == "<>"):
		op = t.text
	case t.kind == kPunct && t.text == "!=":
		op = "<>"
	case t.kind == kWord && strings.EqualFold(t.text, "LIKE"):
		op = "LIKE"
	default:
		return Condition{}, fmt.Errorf("wtl: expected comparison operator, got %q", t.text)
	}
	lit := p.next()
	switch lit.kind {
	case kString:
		return Condition{Column: col, Op: op, Value: lit.text, IsStr: true}, nil
	case kWord:
		return Condition{Column: col, Op: op, Value: lit.text}, nil
	}
	return Condition{}, fmt.Errorf("wtl: expected literal, got %q", lit.text)
}
