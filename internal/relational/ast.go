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

// Binary is a binary operation. Op is one of "=", "<>", "<", "<=", ">",
// ">=", "LIKE" and "AND". The parser admits a comparison or LIKE only between
// a column (or an aggregate call) and a literal, either way round.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr() {}
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// InList tests membership in a list of literals.
type InList struct {
	X    Expr
	List []Expr // each a *Literal
}

func (*InList) expr() {}
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return in.X.String() + " IN (" + strings.Join(parts, ", ") + ")"
}

// FuncCall is an aggregate call (COUNT, SUM, AVG, MIN or MAX) over one
// argument. Star marks COUNT(*).
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

// inspect calls f on e and, for as long as f returns true, on its operands,
// depth first.
func inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		inspect(x.L, f)
		inspect(x.R, f)
	case *InList:
		inspect(x.X, f)
		for _, a := range x.List {
			inspect(a, f)
		}
	case *FuncCall:
		for _, a := range x.Args {
			inspect(a, f)
		}
	}
}

// contains reports whether match holds for a node of e's tree.
func contains(e Expr, match func(Expr) bool) bool {
	found := false
	inspect(e, func(x Expr) bool {
		found = found || match(x)
		return !found
	})
	return found
}

func isAggregate(e Expr) bool { _, ok := e.(*FuncCall); return ok }

func isInList(e Expr) bool { _, ok := e.(*InList); return ok }

func isLike(e Expr) bool { b, ok := e.(*Binary); return ok && b.Op == "LIKE" }

// ---- Statements ----

// SelectItem is one projection: an expression with an optional alias, or a
// star (optionally table-qualified).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for t.*
}

// TableRef is the FROM-clause table with an optional alias.
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

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT over at most one table.
type SelectStmt struct {
	Items   []SelectItem
	From    *TableRef // nil: no FROM, one empty row
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 = none
}

func (*SelectStmt) stmt() {}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table   string
	Columns []string // empty = all, in declaration order
	Rows    [][]Expr // VALUES lists
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
