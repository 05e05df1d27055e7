package wtl

import (
	"reflect"
	"strings"
	"testing"
)

func parseOK(t *testing.T, src string) Stmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestFindCoalitions(t *testing.T) {
	s := parseOK(t, "Find Coalitions With Information Medical Research;")
	fc, ok := s.(*FindCoalitions)
	if !ok || fc.Topic != "Medical Research" {
		t.Fatalf("got %#v", s)
	}
	// Quoted topic and keyword case-insensitivity.
	s = parseOK(t, `find coalitions with information "Medical Insurance"`)
	if s.(*FindCoalitions).Topic != "Medical Insurance" {
		t.Errorf("quoted topic: %#v", s)
	}
}

func TestConnect(t *testing.T) {
	s := parseOK(t, "Connect To Coalition Research;")
	if s.(*Connect).Coalition != "Research" {
		t.Fatalf("got %#v", s)
	}
	s = parseOK(t, "Connect To Coalition Medical Insurance;")
	if s.(*Connect).Coalition != "Medical Insurance" {
		t.Fatalf("multi-word coalition: %#v", s)
	}
}

func TestDisplayForms(t *testing.T) {
	s := parseOK(t, "Display SubClasses of Class Research;")
	if s.(*DisplaySubClasses).Class != "Research" {
		t.Errorf("subclasses: %#v", s)
	}
	s = parseOK(t, "Display Instances of Class Research;")
	if s.(*DisplayInstances).Class != "Research" {
		t.Errorf("instances: %#v", s)
	}
	// The paper's exact §2.3 query, with trailing class qualifier.
	s = parseOK(t, "Display Document of Instance Royal Brisbane Hospital Of Class Research;")
	d := s.(*DisplayDocument)
	if d.Instance != "Royal Brisbane Hospital" || d.Class != "Research" {
		t.Errorf("document: %#v", d)
	}
	// "Documentation" variant, no class.
	s = parseOK(t, "Display Documentation of Instance Royal Brisbane Hospital;")
	d = s.(*DisplayDocument)
	if d.Instance != "Royal Brisbane Hospital" || d.Class != "" {
		t.Errorf("documentation: %#v", d)
	}
	s = parseOK(t, "Display Access Information of Instance Royal Brisbane Hospital;")
	if s.(*DisplayAccessInfo).Instance != "Royal Brisbane Hospital" {
		t.Errorf("access info: %#v", s)
	}
	s = parseOK(t, "Display Interface of Instance Royal Brisbane Hospital;")
	if s.(*DisplayInterface).Instance != "Royal Brisbane Hospital" {
		t.Errorf("interface: %#v", s)
	}
}

func TestFuncQuery(t *testing.T) {
	// The paper's Funding example, using doubled-quote escapes.
	s := parseOK(t, `Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On Royal Brisbane Hospital;`)
	q := s.(*FuncQuery)
	if q.Function != "Funding" || q.ArgCol != "ResearchProjects.Title" {
		t.Fatalf("func query: %#v", q)
	}
	if len(q.Preds) != 1 || q.Preds[0].Column != "ResearchProjects.Title" ||
		q.Preds[0].Op != "=" || q.Preds[0].Value != "AIDS and drugs" || !q.Preds[0].IsStr {
		t.Errorf("predicate: %#v", q.Preds)
	}
	if q.Source != "Royal Brisbane Hospital" {
		t.Errorf("source: %q", q.Source)
	}
	// Single-quoted with '' escape (the paper's typography).
	s = parseOK(t, `Funding(ResearchProjects.Title, (ResearchProjects.Title = 'AIDS ''and'' drugs'))`)
	if v := s.(*FuncQuery).Preds[0].Value; v != "AIDS 'and' drugs" {
		t.Errorf("escaped literal: %q", v)
	}
	// Multiple conjuncts, numeric literal, no source.
	s = parseOK(t, `Description(Patient.Name, (Patient.Name = "Smith" AND History.DateRecorded >= 19980101));`)
	q = s.(*FuncQuery)
	if len(q.Preds) != 2 || q.Preds[1].Op != ">=" || q.Preds[1].Value != "19980101" || q.Preds[1].IsStr {
		t.Errorf("conjuncts: %#v", q.Preds)
	}
	// No predicate at all.
	s = parseOK(t, `Funding(ResearchProjects.Title)`)
	if len(s.(*FuncQuery).Preds) != 0 {
		t.Errorf("no-predicate form: %#v", s)
	}
}

func TestNativeQuery(t *testing.T) {
	s := parseOK(t, `Query Royal Brisbane Hospital Using Native "select * from medical_students";`)
	nq := s.(*NativeQuery)
	if nq.Source != "Royal Brisbane Hospital" || !strings.HasPrefix(nq.Text, "select *") {
		t.Fatalf("native query: %#v", nq)
	}
}

func TestSearchType(t *testing.T) {
	s := parseOK(t, "Search Type PatientHistory;")
	if s.(*SearchType).TypeName != "PatientHistory" {
		t.Fatalf("got %#v", s)
	}
}

func TestMaintenanceStatements(t *testing.T) {
	s := parseOK(t, `Create Coalition Cancer Research Under Research Description "cancer studies";`)
	cc := s.(*CreateCoalition)
	if cc.Name != "Cancer Research" || cc.Parent != "Research" || cc.Description != "cancer studies" {
		t.Fatalf("create coalition: %#v", cc)
	}
	s = parseOK(t, "Create Coalition Superannuation;")
	if cc := s.(*CreateCoalition); cc.Name != "Superannuation" || cc.Parent != "" {
		t.Errorf("minimal create: %#v", cc)
	}
	s = parseOK(t, `Create Service Link ATO_to_Medical From Database Australian Taxation Office To Coalition Medical Information "tax records";`)
	cl := s.(*CreateLink)
	if cl.Name != "ATO_to_Medical" || cl.FromKind != "database" ||
		cl.From != "Australian Taxation Office" || cl.ToKind != "coalition" ||
		cl.To != "Medical" || cl.InfoType != "tax records" {
		t.Fatalf("create link: %#v", cl)
	}
	s = parseOK(t, "Join Coalition Medical;")
	if s.(*JoinCoalition).Coalition != "Medical" {
		t.Errorf("join: %#v", s)
	}
	// At names the co-database to enter through: an IOR, or a database name
	// for the naming service, bare or quoted.
	s = parseOK(t, `Join Coalition Medical Insurance At "IOR:0001ab";`)
	if j := s.(*JoinCoalition); j.Coalition != "Medical Insurance" || j.At != "IOR:0001ab" {
		t.Errorf("join at: %#v", j)
	}
	s = parseOK(t, "join coalition Medical at Royal Brisbane Hospital;")
	if j := s.(*JoinCoalition); j.Coalition != "Medical" || j.At != "Royal Brisbane Hospital" {
		t.Errorf("join at a name: %#v", j)
	}
	s = parseOK(t, `Create Service Link SGF_to_Medical From Database SGF To Coalition Medical At Royal Brisbane Hospital Information hospital funding Description "grants to hospitals";`)
	if cl := s.(*CreateLink); cl.To != "Medical" || cl.At != "Royal Brisbane Hospital" ||
		cl.InfoType != "hospital funding" || cl.Description != "grants to hospitals" {
		t.Errorf("create link with At and Description: %#v", cl)
	}
	s = parseOK(t, `Create Service Link L From Database A To Database B Description "d";`)
	if cl := s.(*CreateLink); cl.To != "B" || cl.At != "" || cl.InfoType != "" || cl.Description != "d" {
		t.Errorf("create link with Description only: %#v", cl)
	}
	s = parseOK(t, "Leave Coalition Medical;")
	if s.(*LeaveCoalition).Coalition != "Medical" {
		t.Errorf("leave: %#v", s)
	}
}

func TestRoundTripStrings(t *testing.T) {
	// String() output must reparse to an equivalent statement.
	sources := []string{
		"Find Coalitions With Information Medical Research;",
		"Connect To Coalition Research;",
		"Display SubClasses Of Class Research;",
		"Display Instances Of Class Research;",
		"Display Document Of Instance Royal Brisbane Hospital Of Class Research;",
		"Display Access Information Of Instance Royal Brisbane Hospital;",
		"Display Interface Of Instance Royal Brisbane Hospital;",
		"Search Type PatientHistory;",
		`Query RBH Using Native "select 1";`,
		`Create Coalition X Under Y Description "d";`,
		`Create Service Link L From Coalition A To Database B Information "t";`,
		"Join Coalition Medical;",
		`Join Coalition Medical At "IOR:00ff";`,
		`Create Service Link L From Coalition A To Coalition B At RBH Information "t" Description "d";`,
		"Leave Coalition Medical;",
		`Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On RBH;`,
	}
	for _, src := range sources {
		s1 := parseOK(t, src)
		s2 := parseOK(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip unstable:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		";",
		"Find Coalitions Information x;",
		"Find Coalitions With Information ;",
		"Connect Coalition X;",
		"Display Wombats of Class X;",
		"Display Document of Instance;",
		"Display Document of Instance X of Wombat Y;",
		"Query X Using Native unquoted;",
		"Create Wombat X;",
		"Create Service Link L From Wombat A To Coalition B;",
		"Join Coalition Medical At;",
		"Join Coalition Medical At IOR:00ff;",
		"Create Service Link L From Database A To Database B Description d;",
		`Create Service Link L From Database A To Database B Description "d" Information "t";`,
		`Funding(ResearchProjects.Title, (Title ~ "x"))`,
		"Funding(ResearchProjects.Title, (Title = ))",
		"Funding(",
		`'unterminated`,
		"Find Coalitions With Information X; trailing",
	}
	for _, src := range bad {
		if s, err := Parse(src); err == nil {
			t.Errorf("no error for %q (got %#v)", src, s)
		}
	}
}

func TestSearchTypeWithStructure(t *testing.T) {
	s := parseOK(t, `Search Type ResearchProjects With Structure (attribute string ResearchProjects.Title; attribute date BeginDate;);`)
	st := s.(*SearchType)
	if st.TypeName != "ResearchProjects" || len(st.Structure) != 2 {
		t.Fatalf("got %#v", st)
	}
	if st.Structure[0].Type != "string" || st.Structure[0].Name != "ResearchProjects.Title" {
		t.Errorf("member 0: %#v", st.Structure[0])
	}
	if st.Structure[1].Name != "BeginDate" {
		t.Errorf("member 1: %#v", st.Structure[1])
	}
	// Round trip.
	s2 := parseOK(t, st.String())
	if s2.String() != st.String() {
		t.Errorf("round trip: %s vs %s", s2, st)
	}
	// Empty structure is an error.
	if _, err := Parse("Search Type X With Structure ();"); err == nil {
		t.Error("empty structure accepted")
	}
}

func TestFuncQueryOnCoalition(t *testing.T) {
	s := parseOK(t, `Funding(ResearchProjects.Title, (ResearchProjects.Title LIKE "%cancer%")) On Coalition Research;`)
	q := s.(*FuncQuery)
	if !q.OnCoalition || q.Source != "Research" {
		t.Fatalf("got %#v", q)
	}
	s2 := parseOK(t, q.String())
	if q2 := s2.(*FuncQuery); !q2.OnCoalition || q2.Source != "Research" {
		t.Errorf("round trip: %#v", q2)
	}
}

// TestPrinterQuotesWhatANameCannotCarry: a statement prints its names bare
// where its own clause reads them back bare, and quoted, with embedded quotes
// doubled, where it would not: the printed form parses to the same statement.
func TestPrinterQuotesWhatANameCannotCarry(t *testing.T) {
	for src, want := range map[string]string{
		`Connect To Coalition Medical Research;`:                                 `Connect To Coalition Medical Research;`,
		`Connect To Coalition "Medical  Research";`:                              `Connect To Coalition "Medical  Research";`,
		`Join Coalition "";`:                                                     `Join Coalition "";`,
		`V(R.K) On "St. Mary's";`:                                                `V(R.K) On "St. Mary's";`,
		`V(R.K) On 'say "x"';`:                                                   `V(R.K) On "say ""x""";`,
		`V(R.K, (R.K = 'say "x"')) On Limit Hospital;`:                           `V(R.K, (R.K = "say ""x""")) On Limit Hospital;`,
		`V(R.K) On "A Limit 3";`:                                                 `V(R.K) On "A Limit 3";`,
		`V(R.K) On "Coalition A";`:                                               `V(R.K) On "Coalition A";`,
		`Display Document Of Instance "Of Mice";`:                                `Display Document Of Instance "Of Mice";`,
		`Create Coalition "Under" Description 'a "b"';`:                          `Create Coalition "Under" Description "a ""b""";`,
		`Query RBH Using Native 'SELECT "x" FROM t';`:                            `Query RBH Using Native "SELECT ""x"" FROM t";`,
		`Query RBH Using Native "SELECT 'x' FROM t\n";`:                          "Query RBH Using Native \"SELECT 'x' FROM t\\n\";",
		`Create Service Link L From Database A To Database B Information 'x"y';`: `Create Service Link L From database A To database B Information "x""y";`,
		`Join Coalition "Meet At Noon" At "a;b";`:                                `Join Coalition "Meet At Noon" At "a;b";`,
		`Join Coalition M At 'Hospital At "Home"';`:                              `Join Coalition M At "Hospital At ""Home""";`,
		`Join Coalition M At Hospital At Home;`:                                  `Join Coalition M At Hospital At Home;`,
		`Create Service Link L From Database A To Coalition "At" At "Information" Description "x;y";`: `Create Service Link L From database A To coalition "At" At "Information" Description "x;y";`,
	} {
		first := parseOK(t, src)
		if got := first.String(); got != want {
			t.Errorf("%s prints as %s, want %s", src, got, want)
			continue
		}
		if again := parseOK(t, want); !reflect.DeepEqual(again, first) {
			t.Errorf("%s reparses to %#v, was %#v", want, again, first)
		}
	}
}

// TestParseScript: a script is statements each ended by ";", whatever the
// line breaks; a ";" inside a quoted text does not end one.
func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("Create Coalition Medical\n  Description \"hospitals; clinics\";;\n" +
		`Join Coalition Medical At "IOR:00ff"; Display Coalitions`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range stmts {
		got = append(got, s.String())
	}
	want := []string{
		`Create Coalition Medical Description "hospitals; clinics";`,
		`Join Coalition Medical At "IOR:00ff";`,
		"Display Coalitions;",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("script = %q, want %q", got, want)
	}
	if stmts, err := ParseScript(" ;\n"); err != nil || len(stmts) != 0 {
		t.Errorf("empty script = %v, %v", stmts, err)
	}
	for src, want := range map[string]string{
		"Display Coalitions; Frobnicate;":         "statement 2:",
		"Display Coalitions Display Links;":       `statement 1: wtl: expected ";", got "Display"`,
		`Join Coalition M; Join Coalition "N At;`: "unterminated",
	} {
		if _, err := ParseScript(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseScript(%q) = %v, want an error with %q", src, err, want)
		}
	}
}
