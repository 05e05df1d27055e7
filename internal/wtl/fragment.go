package wtl

import (
	"fmt"
	"strings"
)

// Fragment is the single-table retrieval the federated planner ships to one
// coalition member: the projected columns the coordinator needs back, the
// predicate conjuncts the member's dialect can evaluate, and an optional row
// limit. Conditions here are already resolved to bare column names (no
// exported-type qualifier); the planner does that resolution against the
// member's exported function before building the fragment.
//
// A fragment renders to either dialect family the federation speaks: SQL()
// for the relational engines (Oracle, mSQL, DB2, Sybase) and OQL() for the
// object engines (ObjectStore, Ontos). Both renderers are deliberately dumb:
// they print exactly what they are given, so a fragment that exceeds the
// target's capabilities fails loudly at the engine rather than silently
// dropping a clause.
type Fragment struct {
	Table   string
	Columns []string    // projection, in fetch order; never empty
	Conds   []Condition // pushed conjuncts, bare column names
	In      *InClause   // optional semi-join key restriction, one more conjunct
	Limit   int         // 0 means no limit clause
}

// KeyLiteral is one member of an IN list: the literal's text plus whether it
// renders quoted. The planner canonicalises build-side values into these.
type KeyLiteral struct {
	Text  string
	IsStr bool
}

// InClause is the semi-join key restriction the planner attaches to a probe
// fragment when the build side's key set is small enough to push: the probe
// column IN the build side's distinct result values. It renders as one more
// AND conjunct; an empty key list is a planner bug and renders invalid SQL
// on purpose rather than silently matching everything.
type InClause struct {
	Column string
	Keys   []KeyLiteral
}

// SQL renders the fragment in the relational family's shape, matching the
// paper's translation byte for byte in the single-column, no-limit case:
//
//	SELECT a.Funding FROM ResearchProjects a WHERE a.Title = 'AIDS and drugs'
func (f *Fragment) SQL() string { return f.render("a") }

// OQL renders the fragment in the object family's OQL-lite:
//
//	SELECT Funding FROM ResearchProjects WHERE Title = 'AIDS and drugs'
//
// OQL has no LIMIT clause; a fragment carrying one still renders it so the
// engine rejects the query instead of the renderer masking a planner bug.
func (f *Fragment) OQL() string { return f.render("") }

// render prints the fragment with every column qualified by the table alias,
// or bare when alias is empty. Both families share the rest of the shape.
func (f *Fragment) render(alias string) string {
	prefix := ""
	if alias != "" {
		prefix = alias + "."
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range f.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(prefix)
		b.WriteString(c)
	}
	b.WriteString(" FROM ")
	b.WriteString(f.Table)
	if alias != "" {
		b.WriteString(" " + alias)
	}
	conj := " WHERE "
	for _, p := range f.Conds {
		fmt.Fprintf(&b, "%s%s%s %s %s", conj, prefix, p.Column, p.Op, SQLLiteral(p))
		conj = " AND "
	}
	if in := f.In; in != nil {
		b.WriteString(conj + prefix + in.Column + " IN (")
		for i, k := range in.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(SQLLiteral(Condition{Value: k.Text, IsStr: k.IsStr}))
		}
		b.WriteString(")")
	}
	if f.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", f.Limit)
	}
	return b.String()
}

// SQLLiteral renders a condition's literal for either dialect family. A
// WebTassili string literal is single-quoted with every quote inside it
// doubled; any other literal is kept verbatim (numbers stay textual; the
// engine types them):
//
//	O'Brien  ->  'O''Brien'
//	42       ->  42
func SQLLiteral(p Condition) string {
	if p.IsStr {
		return "'" + strings.ReplaceAll(p.Value, "'", "''") + "'"
	}
	return p.Value
}
