// Package wtl implements the WebTassili language: the special-purpose query
// language WebFINDIT users speak. It covers every construct the paper uses
// (§2.3, §5): information-space education (Find Coalitions, Display
// SubClasses/Instances/Documentation/Access Information/Interface),
// connection management (Connect To Coalition), typed data access (exported
// function invocation with a predicate, translated to SQL), native queries,
// and information-space maintenance (Create Coalition, Create Service Link,
// Join/Leave Coalition).
package wtl

import (
	"fmt"
	"strings"
)

// Stmt is any parsed WebTassili statement.
type Stmt interface {
	stmt()
	String() string
}

// nameText renders a name for a clause that reads it back with the parser's
// name(what, stops...): bare when that gives the same name again (words of
// word characters joined by single blanks, none of them one of the clause's
// stop words), quoted otherwise (blank, punctuation, runs of blanks, a stop
// word).
func nameText(s string, stops ...string) string {
	if s == "" {
		return quoteText(s)
	}
	for _, w := range strings.Split(s, " ") {
		if w == "" {
			return quoteText(s)
		}
		for i := 0; i < len(w); i++ {
			if !isWordChar(w[i]) {
				return quoteText(s)
			}
		}
		for _, stop := range stops {
			if strings.EqualFold(w, stop) {
				return quoteText(s)
			}
		}
	}
	return s
}

// quoteText renders a text as a string literal the lexer reads back: an
// embedded quote is doubled.
func quoteText(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// sourceText renders the target of an On clause for sourceName to read back.
// Its stops are shapes, not words: a name that ends in the Limit clause's
// shape is quoted, and so is a single source whose name starts with the word
// that would make it a coalition.
func sourceText(s string, onCoalition bool) string {
	words := strings.Split(s, " ")
	n := len(words)
	if !onCoalition && strings.EqualFold(words[0], "Coalition") ||
		n >= 2 && strings.EqualFold(words[n-2], "Limit") && allDigits(words[n-1]) {
		return quoteText(s)
	}
	return nameText(s)
}

// FindCoalitions is `Find Coalitions With Information <topic>;`.
type FindCoalitions struct {
	Topic string
}

func (*FindCoalitions) stmt() {}
func (s *FindCoalitions) String() string {
	return fmt.Sprintf("Find Coalitions With Information %s;", nameText(s.Topic))
}

// Connect is `Connect To Coalition <name>;`.
type Connect struct {
	Coalition string
}

func (*Connect) stmt() {}
func (s *Connect) String() string {
	return fmt.Sprintf("Connect To Coalition %s;", nameText(s.Coalition))
}

// DisplaySubClasses is `Display SubClasses Of Class <name>;`.
type DisplaySubClasses struct {
	Class string
}

func (*DisplaySubClasses) stmt() {}
func (s *DisplaySubClasses) String() string {
	return fmt.Sprintf("Display SubClasses Of Class %s;", nameText(s.Class))
}

// DisplayInstances is `Display Instances Of Class <name>;`.
type DisplayInstances struct {
	Class string
}

func (*DisplayInstances) stmt() {}
func (s *DisplayInstances) String() string {
	return fmt.Sprintf("Display Instances Of Class %s;", nameText(s.Class))
}

// DisplayDocument is `Display Document[ation] Of Instance <name> [Of Class
// <name>];`.
type DisplayDocument struct {
	Instance string
	Class    string // optional
}

func (*DisplayDocument) stmt() {}
func (s *DisplayDocument) String() string {
	if s.Class != "" {
		return fmt.Sprintf("Display Document Of Instance %s Of Class %s;", nameText(s.Instance, "Of"), nameText(s.Class))
	}
	return fmt.Sprintf("Display Document Of Instance %s;", nameText(s.Instance, "Of"))
}

// DisplayAccessInfo is `Display Access Information Of Instance <name>;`.
type DisplayAccessInfo struct {
	Instance string
}

func (*DisplayAccessInfo) stmt() {}
func (s *DisplayAccessInfo) String() string {
	return fmt.Sprintf("Display Access Information Of Instance %s;", nameText(s.Instance))
}

// DisplayInterface is `Display Interface Of Instance <name>;`.
type DisplayInterface struct {
	Instance string
}

func (*DisplayInterface) stmt() {}
func (s *DisplayInterface) String() string {
	return fmt.Sprintf("Display Interface Of Instance %s;", nameText(s.Instance))
}

// DisplayCoalitions is `Display Coalitions;` — list the coalitions known in
// the session's current context (user education).
type DisplayCoalitions struct{}

func (*DisplayCoalitions) stmt()          {}
func (*DisplayCoalitions) String() string { return "Display Coalitions;" }

// DisplayLinks is `Display Service Links;` — list the service links known in
// the session's current context.
type DisplayLinks struct{}

func (*DisplayLinks) stmt()          {}
func (*DisplayLinks) String() string { return "Display Service Links;" }

// Member is one `attribute <type> <name>` of a structural search.
type Member struct {
	Type string
	Name string
}

// SearchType is `Search Type <name> [With Structure (attribute <type>
// <name>; ...)];` — find sources exporting a type by name, optionally
// requiring the named attributes (the paper's "search for an information
// type while providing its structure").
type SearchType struct {
	TypeName  string
	Structure []Member
}

func (*SearchType) stmt() {}
func (s *SearchType) String() string {
	if len(s.Structure) == 0 {
		return fmt.Sprintf("Search Type %s;", nameText(s.TypeName, "With"))
	}
	parts := make([]string, len(s.Structure))
	for i, m := range s.Structure {
		parts[i] = fmt.Sprintf("attribute %s %s;", m.Type, m.Name)
	}
	return fmt.Sprintf("Search Type %s With Structure (%s);", nameText(s.TypeName, "With"), strings.Join(parts, " "))
}

// Condition is one `<column> <op> <literal>` predicate conjunct.
type Condition struct {
	Column string // qualified, e.g. "ResearchProjects.Title"
	Op     string // = <> < <= > >= LIKE
	Value  string // literal text (numbers kept as text; the wrapper types them)
	IsStr  bool   // literal was quoted
}

func (c Condition) String() string {
	v := c.Value
	if c.IsStr {
		v = quoteText(v)
	}
	return fmt.Sprintf("%s %s %s", c.Column, c.Op, v)
}

// SemiJoin is the join clause of a coalition function query: a second
// coalition function query whose result values restrict the outer side.
// `A(R.K) On Coalition X SemiJoin B(R.K2, (...)) On Coalition Y;` answers
// with the outer rows whose result value also appears among B's results —
// the cross-member correlation the paper's coalitions exist for, planned as
// a semi-join so only keys (never whole rows) cross the coordinator twice.
// The joined side never carries its own Limit: it is a filter, not an
// answer.
type SemiJoin struct {
	Function string
	ArgCol   string
	Preds    []Condition
	Source   string // coalition name; join sides are always coalition-wide
}

// String renders the clause without the statement terminator, matching the
// outer FuncQuery's print shape so the whole statement stays a parse fixed
// point.
func (j *SemiJoin) String() string {
	out := fmt.Sprintf("%s(%s)", j.Function, j.ArgCol)
	if len(j.Preds) > 0 {
		preds := make([]string, len(j.Preds))
		for i, p := range j.Preds {
			preds[i] = p.String()
		}
		out = fmt.Sprintf("%s(%s, (%s))", j.Function, j.ArgCol, strings.Join(preds, " AND "))
	}
	return out + " On Coalition " + sourceText(j.Source, true)
}

// FuncQuery is the paper's typed data access: an exported-function
// invocation with a predicate, e.g.
//
//	Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On Royal Brisbane Hospital;
//
// The On clause names the target source; `On Coalition <name>` decomposes
// the query over every coalition member exporting the function (the paper's
// "the query is decomposed if needed"). With no On clause the session's
// current source is used.
type FuncQuery struct {
	Function    string
	ArgCol      string // the column the predicate constrains
	Preds       []Condition
	Source      string // optional
	OnCoalition bool   // Source names a coalition to fan out over
	// Join, when set, restricts the answer to rows whose result value also
	// appears in the joined query's results (`... SemiJoin F(C) On
	// Coalition Y ...`). Only valid on coalition queries.
	Join *SemiJoin
	// Limit caps the merged result at N rows (`... Limit N;`). 0 means no
	// limit. On a coalition query the planner pushes the limit into member
	// fragments where the dialect accepts it and terminates the fan-out
	// early once N rows are merged.
	Limit int
}

func (*FuncQuery) stmt() {}
func (s *FuncQuery) String() string {
	out := fmt.Sprintf("%s(%s)", s.Function, s.ArgCol)
	if len(s.Preds) > 0 {
		preds := make([]string, len(s.Preds))
		for i, p := range s.Preds {
			preds[i] = p.String()
		}
		out = fmt.Sprintf("%s(%s, (%s))", s.Function, s.ArgCol, strings.Join(preds, " AND "))
	}
	if s.Source != "" || s.OnCoalition {
		if s.OnCoalition {
			out += " On Coalition"
		} else {
			out += " On"
		}
		out += " " + sourceText(s.Source, s.OnCoalition)
	}
	if s.Join != nil {
		out += " SemiJoin " + s.Join.String()
	}
	if s.Limit > 0 {
		out += fmt.Sprintf(" Limit %d", s.Limit)
	}
	return out + ";"
}

// NativeQuery is `Query <source> Using Native "<text>";` — the paper's
// "directly using native query languages of the underlying databases".
type NativeQuery struct {
	Source string
	Text   string
}

func (*NativeQuery) stmt() {}
func (s *NativeQuery) String() string {
	return fmt.Sprintf("Query %s Using Native %s;", nameText(s.Source, "Using"), quoteText(s.Text))
}

// CreateCoalition is `Create Coalition <name> [Under <parent>] [Description
// "<text>"];` — information-space definition.
type CreateCoalition struct {
	Name        string
	Parent      string
	Description string
}

func (*CreateCoalition) stmt() {}
func (s *CreateCoalition) String() string {
	out := "Create Coalition " + nameText(s.Name, "Under", "Description")
	if s.Parent != "" {
		out += " Under " + nameText(s.Parent, "Description")
	}
	if s.Description != "" {
		out += " Description " + quoteText(s.Description)
	}
	return out + ";"
}

// CreateLink is `Create Service Link <name> From coalition|database <a> To
// coalition|database <b> [At <ref>] [Information "<topic>"] [Description
// "<text>"];`. At names the co-database that answers for the target: a
// stringified IOR, or a database name the naming service resolves.
type CreateLink struct {
	Name        string
	FromKind    string // "coalition" or "database"
	From        string
	ToKind      string
	To          string
	At          string
	InfoType    string
	Description string
}

func (*CreateLink) stmt() {}
func (s *CreateLink) String() string {
	out := fmt.Sprintf("Create Service Link %s From %s %s To %s %s",
		nameText(s.Name, "From"), s.FromKind, nameText(s.From, "To"), s.ToKind,
		nameText(s.To, "At", "Information", "Description"))
	if s.At != "" {
		out += " At " + nameText(s.At, "Information", "Description")
	}
	if s.InfoType != "" {
		out += " Information " + quoteText(s.InfoType)
	}
	if s.Description != "" {
		out += " Description " + quoteText(s.Description)
	}
	return out + ";"
}

// JoinCoalition is `Join Coalition <name> [At <ref>];` — advertise the
// session's home database into a coalition, entering it through the
// co-database At names (as in CreateLink) or else one the node finds.
type JoinCoalition struct {
	Coalition string
	At        string
}

func (*JoinCoalition) stmt() {}
func (s *JoinCoalition) String() string {
	if s.At != "" {
		return fmt.Sprintf("Join Coalition %s At %s;", nameText(s.Coalition, "At"), nameText(s.At))
	}
	return fmt.Sprintf("Join Coalition %s;", nameText(s.Coalition, "At"))
}

// LeaveCoalition is `Leave Coalition <name>;`.
type LeaveCoalition struct {
	Coalition string
}

func (*LeaveCoalition) stmt() {}
func (s *LeaveCoalition) String() string {
	return fmt.Sprintf("Leave Coalition %s;", nameText(s.Coalition))
}
