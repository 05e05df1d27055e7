package query_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/wtl"
)

func TestWrapperSQLTranslation(t *testing.T) {
	fn := &codb.ExportedFunction{
		Name: "Funding", Returns: "real",
		Table: "ResearchProjects", ResultColumn: "Funding", ArgColumn: "Title",
	}
	d := &codb.SourceDescriptor{Wrapper: "WebTassiliOracle", Engine: "Oracle"}
	w := query.WrapperFor(d)
	if w.Name() != "WebTassiliOracle" {
		t.Errorf("wrapper = %s", w.Name())
	}
	sql, err := w.Translate(fn, []wtl.Condition{
		{Column: "ResearchProjects.Title", Op: "=", Value: "AIDS and drugs", IsStr: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's exact translation (§2.3).
	want := "SELECT a.Funding FROM ResearchProjects a WHERE a.Title = 'AIDS and drugs'"
	if sql != want {
		t.Errorf("sql = %q, want %q", sql, want)
	}
	// No predicate.
	sql, err = w.Translate(fn, nil)
	if err != nil || sql != "SELECT a.Funding FROM ResearchProjects a" {
		t.Errorf("no-predicate sql = %q, %v", sql, err)
	}
	// Multiple conjuncts, numeric literal, unqualified column.
	sql, err = w.Translate(fn, []wtl.Condition{
		{Column: "Title", Op: "LIKE", Value: "AIDS%", IsStr: true},
		{Column: "ResearchProjects.Funding", Op: ">", Value: "100000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT a.Funding FROM ResearchProjects a WHERE a.Title LIKE 'AIDS%' AND a.Funding > 100000" {
		t.Errorf("sql = %q", sql)
	}
	// Quote escaping.
	sql, err = w.Translate(fn, []wtl.Condition{
		{Column: "Title", Op: "=", Value: "O'Brien's study", IsStr: true},
	})
	if err != nil || !strings.Contains(sql, "'O''Brien''s study'") {
		t.Errorf("escaped sql = %q, %v", sql, err)
	}
	// Mismatched qualifier.
	if _, err := w.Translate(fn, []wtl.Condition{
		{Column: "OtherTable.Title", Op: "=", Value: "x", IsStr: true},
	}); err == nil {
		t.Error("mismatched qualifier accepted")
	}
}

func TestWrapperQualifierNormalisation(t *testing.T) {
	fn := &codb.ExportedFunction{Table: "research_projects", ResultColumn: "funding"}
	w := query.WrapperFor(&codb.SourceDescriptor{Engine: "Oracle"})
	sql, err := w.Translate(fn, []wtl.Condition{
		{Column: "ResearchProjects.Title", Op: "=", Value: "x", IsStr: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "a.Title = 'x'") {
		t.Errorf("sql = %q", sql)
	}
}

func TestWrapperOQLTranslation(t *testing.T) {
	fn := &codb.ExportedFunction{Table: "Callout", ResultColumn: "Hospital"}
	d := &codb.SourceDescriptor{Engine: "Ontos"}
	w := query.WrapperFor(d)
	if w.Name() != "WebTassiliOntos" {
		t.Errorf("wrapper = %s", w.Name())
	}
	q, err := w.Translate(fn, []wtl.Condition{
		{Column: "Callout.Suburb", Op: "=", Value: "Herston", IsStr: true},
	})
	if err != nil || q != "SELECT Hospital FROM Callout WHERE Suburb = 'Herston'" {
		t.Errorf("oql = %q, %v", q, err)
	}
}

func TestWrapperFallbackByEngine(t *testing.T) {
	w := query.WrapperFor(&codb.SourceDescriptor{Wrapper: "SomethingCustom", Engine: "DB2"})
	if _, ok := w.(interface{ Name() string }); !ok || w.Name() != "WebTassiliDB2" {
		t.Errorf("fallback wrapper = %s", w.Name())
	}
	w = query.WrapperFor(&codb.SourceDescriptor{Wrapper: "WebTassiliObjectStore"})
	if w.Name() != "WebTassiliObjectStore" {
		t.Errorf("objectstore wrapper = %s", w.Name())
	}
}

func TestNewProcessorValidation(t *testing.T) {
	if _, err := query.New(query.Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// twoNodeFixture wires two nodes sharing a coalition for processor tests.
func twoNodeFixture(t *testing.T) (*core.Federation, *core.Node, *core.Node) {
	t.Helper()
	f, err := core.NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	a, err := f.AddNode(orb.VisiBroker, core.NodeConfig{
		Name: "Alpha", Engine: core.EngineOracle,
		InformationType: "alpha records",
		Schema: `CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);
			INSERT INTO r VALUES ('a', 1), ('b', 2);`,
		Interface: []codb.ExportedType{{
			Name: "R",
			Functions: []codb.ExportedFunction{{
				Name: "V", Returns: "int",
				Table: "r", ResultColumn: "v", ArgColumn: "k",
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AddNode(orb.Orbix, core.NodeConfig{
		Name: "Beta", Engine: core.EngineDB2,
		InformationType: "beta records",
		Schema:          "CREATE TABLE s (x INT); INSERT INTO s VALUES (42);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DefineCoalition("Records", "", "shared records", "Alpha", "Beta"); err != nil {
		t.Fatal(err)
	}
	return f, a, b
}

func TestSessionStateAndSourceSelection(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	// No source selected yet: function query without On fails.
	if _, err := s.Execute(context.Background(), `V(R.K, (R.K = "a"));`); err == nil {
		t.Error("function query without source accepted")
	}
	// Select the source via access info; subsequent queries use it.
	if _, err := s.Execute(context.Background(), "Display Access Information of Instance Alpha;"); err != nil {
		t.Fatal(err)
	}
	if s.Source != "Alpha" {
		t.Fatalf("session source = %q", s.Source)
	}
	resp, err := s.Execute(context.Background(), `V(R.K, (R.K = "b"));`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Rows[0][0].Int != 2 {
		t.Errorf("V(b) = %v", resp.Result.Rows[0][0])
	}
	// Display Document also selects the source.
	s2 := a.NewSession()
	if _, err := s2.Execute(context.Background(), "Display Documentation of Instance Beta;"); err != nil {
		t.Fatal(err)
	}
	if s2.Source != "Beta" {
		t.Errorf("source after document = %q", s2.Source)
	}
}

func TestDisplayInterface(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	resp, err := s.Execute(context.Background(), "Display Interface of Instance Alpha;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Names) != 1 || resp.Names[0] != "R" {
		t.Errorf("interface = %v", resp.Names)
	}
}

func TestCrossNodeFunctionQuery(t *testing.T) {
	_, _, b := twoNodeFixture(t)
	// From Beta, query Alpha's exported function: descriptor comes from the
	// shared coalition; data crosses the wire via Alpha's ISI.
	s := b.NewSession()
	resp, err := s.Execute(context.Background(), `V(R.K, (R.K = "a")) On Alpha;`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Rows[0][0].Int != 1 {
		t.Errorf("cross-node V(a) = %v", resp.Result.Rows[0][0])
	}
	if resp.Descriptor.Engine != core.EngineOracle {
		t.Errorf("descriptor engine = %s", resp.Descriptor.Engine)
	}
}

func TestTraceAccumulationAndReset(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	if _, err := s.Execute(context.Background(), "Find Coalitions With Information alpha records;"); err != nil {
		t.Fatal(err)
	}
	first := s.Trace()
	if len(first) == 0 {
		t.Fatal("no trace")
	}
	if again := s.Trace(); len(again) != 0 {
		t.Errorf("trace not cleared: %v", again)
	}
}

func TestResponseTextRendering(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information alpha records;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Records") || !strings.Contains(resp.Text, "score") {
		t.Errorf("find text: %s", resp.Text)
	}
	resp, err = s.Execute(context.Background(), "Find Coalitions With Information zebra xylophone;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "No coalitions found") {
		t.Errorf("miss text: %s", resp.Text)
	}
	resp, err = s.Execute(context.Background(), "Display Instances of Class Records;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Alpha") || !strings.Contains(resp.Text, "Beta") {
		t.Errorf("instances text: %s", resp.Text)
	}
}

func TestMaintenanceRequiresLocalCoDB(t *testing.T) {
	// A processor configured without LocalCoDB (e.g. a pure client) rejects
	// maintenance statements.
	f, a, _ := twoNodeFixture(t)
	_ = f
	p, err := query.New(query.Config{
		ORB:    a.Config.ORB,
		Home:   "Client",
		Local:  codb.NewClient(a.Config.ORB.Resolve(a.CoDBIOR)),
		Gossip: codb.NewGossipAgent(a.Config.ORB, gossip.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	if _, err := s.Execute(context.Background(), `Create Coalition X Description "d";`); err == nil {
		t.Error("maintenance without LocalCoDB accepted")
	}
	if _, err := s.Execute(context.Background(), "Join Coalition Records;"); err == nil {
		t.Error("join without home descriptor accepted")
	}
}

func TestExecuteParseError(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	if _, err := s.Execute(context.Background(), "Frobnicate the database;"); err == nil {
		t.Error("nonsense statement accepted")
	}
}

func TestConnectAndBrowseInPackage(t *testing.T) {
	_, a, b := twoNodeFixture(t)
	s := a.NewSession()
	if _, err := s.Execute(context.Background(), "Connect To Coalition Records;"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(context.Background(), "Display Coalitions;")
	if err != nil || len(resp.Names) != 1 || resp.Names[0] != "Records" {
		t.Errorf("coalitions = %v, %v", resp.Names, err)
	}
	resp, err = s.Execute(context.Background(), "Display SubClasses of Class Records;")
	if err != nil || len(resp.Names) != 0 {
		t.Errorf("subclasses = %v, %v", resp.Names, err)
	}
	resp, err = s.Execute(context.Background(), "Display Service Links;")
	if err != nil || len(resp.Names) != 0 {
		t.Errorf("links = %v, %v", resp.Names, err)
	}
	// Connect from the other node too (its local co-database has it).
	s2 := b.NewSession()
	if _, err := s2.Execute(context.Background(), "Connect To Coalition Records;"); err != nil {
		t.Fatal(err)
	}
}

func TestSearchTypeInPackage(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	resp, err := s.Execute(context.Background(), "Search Type R;")
	if err != nil || len(resp.Sources) != 1 || resp.Sources[0].Name != "Alpha" {
		t.Fatalf("search = %v, %v", resp.Names, err)
	}
	resp, err = s.Execute(context.Background(), "Search Type Missing;")
	if err != nil || len(resp.Sources) != 0 {
		t.Errorf("miss search = %v, %v", resp.Names, err)
	}
}

func TestCoalitionFanOutInPackage(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	resp, err := s.Execute(context.Background(), `V(R.K, (R.K = "a")) On Coalition Records;`)
	if err != nil {
		t.Fatal(err)
	}
	// Only Alpha exports V; Beta is skipped silently.
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Str != "Alpha" {
		t.Errorf("fan-out rows = %+v", resp.Result.Rows)
	}
	if _, err := s.Execute(context.Background(), `V(R.K) On Coalition NoSuchCoalition;`); err == nil {
		t.Error("fan-out over unknown coalition accepted")
	}
}

func TestNativeQueryInPackage(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	resp, err := s.Execute(context.Background(), `Query Beta Using Native "SELECT x FROM s";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Int != 42 {
		t.Errorf("rows = %+v", resp.Result.Rows)
	}
	// Engine errors propagate with the source name.
	_, err = s.Execute(context.Background(), `Query Beta Using Native "SELECT nope FROM s";`)
	if err == nil || !strings.Contains(err.Error(), "Beta") {
		t.Errorf("error = %v", err)
	}
}

func TestCreateLinkAndDisplay(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	s := a.NewSession()
	if _, err := s.Execute(context.Background(), `Create Service Link A_to_B From Database Alpha To Database Beta Information "beta records";`); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(context.Background(), "Display Links;")
	if err != nil || len(resp.Names) != 1 || resp.Names[0] != "A_to_B" {
		t.Errorf("links = %v, %v", resp.Names, err)
	}
	if _, err := s.Execute(context.Background(), `Create Service Link A_to_B From Database Alpha To Database Beta;`); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestJoinLeaveInPackage(t *testing.T) {
	f, a, _ := twoNodeFixture(t)
	// A third node joins Records via WebTassili after learning of it by link.
	c, err := f.AddNode(orb.OrbixWeb, core.NodeConfig{
		Name: "Gamma", Engine: core.EngineSybase,
		InformationType: "gamma records",
		Schema:          "CREATE TABLE g (x INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddLink(core.LinkSpec{Name: "G_to_Records", FromKind: "database",
		From: "Gamma", ToKind: "coalition", To: "Records", InfoType: "records"}); err != nil {
		t.Fatal(err)
	}
	s := c.NewSession()
	if _, err := s.Execute(context.Background(), "Join Coalition Records;"); err != nil {
		t.Fatal(err)
	}
	members, _ := a.CoDB.Members("Records")
	if len(members) != 3 {
		t.Fatalf("members after join = %d", len(members))
	}
	// Gamma replicated the coalition locally.
	if !c.CoDB.HasCoalition("Records") {
		t.Error("join did not replicate locally")
	}
	if _, err := s.Execute(context.Background(), "Join Coalition Records;"); err == nil {
		t.Error("double join accepted")
	}
	if _, err := s.Execute(context.Background(), "Leave Coalition Records;"); err != nil {
		t.Fatal(err)
	}
	members, _ = a.CoDB.Members("Records")
	if len(members) != 2 {
		t.Errorf("members after leave = %d", len(members))
	}
	if _, err := s.Execute(context.Background(), "Leave Coalition NoSuch;"); err == nil {
		t.Error("leave unknown coalition accepted")
	}
}
