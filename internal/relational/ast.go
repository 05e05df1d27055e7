package relational

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed SQL expression.
type Expr interface {
	expr()
	String() string
}

// ---- Expressions ----

// Literal is a constant value.
type Literal struct{ Val Value }

func (*Literal) expr() {}
func (l *Literal) String() string {
	if !l.Val.Null && (l.Val.Kind == TypeText || l.Val.Kind == TypeDate) {
		return "'" + strings.ReplaceAll(l.Val.Str, "'", "''") + "'"
	}
	return l.Val.String()
}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColRef) expr() {}
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Binary is a binary operation. Op is one of the operator literals
// ("+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=",
// "AND", "OR", "LIKE").
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr() {}
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Unary is a unary operation: "-" or "NOT".
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) expr()            {}
func (u *Unary) String() string { return u.Op + " " + u.X.String() }

// IsNull tests nullity; Negate selects IS NOT NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) expr() {}
func (n *IsNull) String() string {
	if n.Negate {
		return n.X.String() + " IS NOT NULL"
	}
	return n.X.String() + " IS NULL"
}

// InList tests membership in a literal list.
type InList struct {
	X      Expr
	List   []Expr
	Negate bool
}

func (*InList) expr() {}
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Negate {
		not = " NOT"
	}
	return in.X.String() + not + " IN (" + strings.Join(parts, ", ") + ")"
}

// Between tests a range inclusively.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

func (*Between) expr() {}
func (b *Between) String() string {
	not := ""
	if b.Negate {
		not = " NOT"
	}
	return b.X.String() + not + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
}

// FuncCall is a scalar or aggregate function call. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncCall) expr() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, e := range f.Args {
		parts[i] = e.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

// aggregateFuncs is the set of aggregate function names.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate.
func (f *FuncCall) IsAggregate() bool { return aggregateFuncs[f.Name] }

// hasAggregate reports whether an expression tree contains an aggregate call.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *Unary:
		return hasAggregate(x.X)
	case *IsNull:
		return hasAggregate(x.X)
	case *InList:
		if hasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasAggregate(a) {
				return true
			}
		}
	case *Between:
		return hasAggregate(x.X) || hasAggregate(x.Lo) || hasAggregate(x.Hi)
	}
	return false
}

// hasInList reports whether an expression tree contains a literal IN list.
func hasInList(e Expr) bool {
	switch x := e.(type) {
	case *InList:
		return true
	case *Binary:
		return hasInList(x.L) || hasInList(x.R)
	case *Unary:
		return hasInList(x.X)
	case *IsNull:
		return hasInList(x.X)
	case *FuncCall:
		for _, a := range x.Args {
			if hasInList(a) {
				return true
			}
		}
	case *Between:
		return hasInList(x.X) || hasInList(x.Lo) || hasInList(x.Hi)
	}
	return false
}

// hasLike reports whether an expression tree contains a LIKE comparison.
func hasLike(e Expr) bool {
	switch x := e.(type) {
	case *Binary:
		return x.Op == "LIKE" || hasLike(x.L) || hasLike(x.R)
	case *Unary:
		return hasLike(x.X)
	case *IsNull:
		return hasLike(x.X)
	case *FuncCall:
		for _, a := range x.Args {
			if hasLike(a) {
				return true
			}
		}
	case *InList:
		if hasLike(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasLike(a) {
				return true
			}
		}
	case *Between:
		return hasLike(x.X) || hasLike(x.Lo) || hasLike(x.Hi)
	}
	return false
}

// ---- Statements ----

// SelectItem is one projection: an expression with an optional alias, or a
// star (optionally table-qualified).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for t.*
}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name rows from this table are qualified with.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN step after the first FROM table.
type JoinClause struct {
	Kind  string // "INNER", "LEFT", "CROSS"
	Table TableRef
	On    Expr // nil for CROSS
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT, possibly the head of a UNION chain.
// ORDER BY / LIMIT / OFFSET on the head apply to the combined result.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef   // first table, plus comma-joined tables
	Joins    []JoinClause // explicit JOIN clauses
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int

	Union    *SelectStmt // next arm of a UNION chain (nil = none)
	UnionAll bool        // keep duplicates when combining with Union
}

func (*SelectStmt) stmt() {}

// Subquery is a parenthesised SELECT used inside an expression, as in
// `x IN (SELECT ...)` or `EXISTS (SELECT ...)`. Exists selects the EXISTS
// form; Negate applies to either form. Subqueries are evaluated once per
// statement (no correlation).
type Subquery struct {
	X      Expr // nil for EXISTS
	Select *SelectStmt
	Exists bool
	Negate bool
}

func (*Subquery) expr() {}
func (s *Subquery) String() string {
	not := ""
	if s.Negate {
		not = "NOT "
	}
	if s.Exists {
		return not + "EXISTS (subquery)"
	}
	return s.X.String() + " " + not + "IN (subquery)"
}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table   string
	Columns []string    // empty = all, in declaration order
	Rows    [][]Expr    // VALUES lists
	Query   *SelectStmt // INSERT INTO ... SELECT
}

func (*InsertStmt) stmt() {}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	IfNotExists bool
	Schema      Schema
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is a parsed CREATE INDEX.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

func (*CreateIndexStmt) stmt() {}

// ExplainStmt is `EXPLAIN SELECT ...`: it returns the execution plan as
// rows of text instead of running the query.
type ExplainStmt struct{ Query *SelectStmt }

func (*ExplainStmt) stmt() {}

// describeStmt renders a one-word statement kind for errors and tracing.
func describeStmt(s Statement) string {
	switch s.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *ExplainStmt:
		return "EXPLAIN"
	}
	return fmt.Sprintf("%T", s)
}
