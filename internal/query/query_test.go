package query_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/query"
)

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

// TestNativeQueryReachesTheEngine: a native query from another node reaches
// the coalition member's engine whole. A join, which no engine here has,
// surfaces the engine's refusal instead of an empty answer, so does an ORDER
// BY ordinal out of range where no row matches (an in-range one orders the
// rows), and a relational EXPLAIN comes back as rows naming the index access
// path.
func TestNativeQueryReachesTheEngine(t *testing.T) {
	f, a, _ := twoNodeFixture(t)
	var load strings.Builder
	load.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT); CREATE INDEX r_v ON r (v);")
	for j := 0; j < 120; j++ {
		fmt.Fprintf(&load, " INSERT INTO r VALUES ('k%d', %d);", j, j)
	}
	if _, err := f.AddNode(orb.Orbix, core.NodeConfig{
		Name: "Gamma", Engine: core.EngineOracle, InformationType: "gamma records", Schema: load.String(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.DefineCoalition("Gammas", "", "gamma records", "Alpha", "Gamma"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := a.NewSession()
	resp, err := s.Execute(ctx, `Query Gamma Using Native "SELECT a.k FROM r a JOIN r b ON a.k = b.k";`)
	if err == nil || !strings.Contains(err.Error(), "JOIN is not supported") {
		t.Errorf("native join: %v, %+v", err, resp)
	}
	resp, err = s.Execute(ctx, `Query Gamma Using Native "SELECT k FROM r WHERE v = 1 OR v = 2";`)
	if err == nil || !strings.Contains(err.Error(), "OR is not supported") {
		t.Errorf("native OR: %v, %+v", err, resp)
	}
	resp, err = s.Execute(ctx, `Query Gamma Using Native "SELECT k, v FROM r WHERE v < 3 ORDER BY 2 DESC";`)
	if err != nil || len(resp.Result.Rows) != 3 || resp.Result.Rows[0][1].Int != 2 {
		t.Errorf("native ORDER BY 2 DESC: %v, %+v", err, resp)
	}
	resp, err = s.Execute(ctx, `Query Gamma Using Native "SELECT k FROM r WHERE v > 1000 ORDER BY 9";`)
	if err == nil || !strings.Contains(err.Error(), "ordinal 9 out of range") {
		t.Errorf("native ORDER BY 9 over no rows: %v, %+v", err, resp)
	}
	resp, err = s.Execute(ctx, `Query Gamma Using Native "EXPLAIN SELECT v FROM r WHERE v >= 100";`)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for _, row := range resp.Result.Rows {
		plan = append(plan, row[0].Str)
	}
	if !strings.Contains(strings.Join(plan, "\n"), "index range r_v(v) [100, inf)") {
		t.Errorf("EXPLAIN through the federation: %q", plan)
	}
	// TODO(ROADMAP "Federated Explain / Explain Analyze"): an oodb member
	// has no EXPLAIN yet; check one here once that item gives it the few
	// lines relational EXPLAIN has.
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
	// A link whose target the node cannot resolve is refused, not stored
	// dead: an unknown database, an unknown coalition, a name with no naming
	// service to look it up in, a reference that is no IOR.
	for _, stmt := range []string{
		`Create Service Link L1 From Database Alpha To Database Zeta;`,
		`Create Service Link L2 From Database Alpha To Coalition Nowhere;`,
		`Create Service Link L3 From Database Alpha To Database Beta At Beta;`,
		`Create Service Link L4 From Database Alpha To Database Beta At "IOR:zz";`,
	} {
		if _, err := s.Execute(context.Background(), stmt); err == nil {
			t.Errorf("%s accepted", stmt)
		}
	}
	if links := a.CoDB.Links(); len(links) != 1 {
		t.Errorf("links after refusals = %+v", links)
	}
}

// TestStatementLinkIsFollowed: a service link made by Create Service Link
// carries the co-database reference discovery follows. A link made without
// At takes the target's reference from what the node knows; one made with
// an IOR lets a node outside the target coalition find it and connect to it
// through the link alone.
func TestStatementLinkIsFollowed(t *testing.T) {
	f, a, b := twoNodeFixture(t)
	if _, err := a.NewSession().Execute(context.Background(),
		"Create Service Link A_to_B From Database Alpha To Database Beta;"); err != nil {
		t.Fatal(err)
	}
	if links := a.CoDB.Links(); len(links) != 1 || links[0].CoDBRef != b.Descriptor.CoDBRef {
		t.Errorf("link made without At = %+v, want Beta's co-database", links)
	}
	followLink(t, addOutsider(t, f, "Gamma", core.NodeConfig{}), `"`+b.Descriptor.CoDBRef+`"`)
}

// TestAtResolvesThroughNaming: an At reference that is not an IOR is a
// database name, looked up in the naming service the node is configured
// with, for links and joins alike.
func TestAtResolvesThroughNaming(t *testing.T) {
	f, a, _ := twoNodeFixture(t)
	nsORB := f.ORB(orb.Orbix)
	reg, _, err := naming.Serve(nsORB)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Rebind(naming.CoDatabases+"Alpha", a.Descriptor.CoDBRef); err != nil {
		t.Fatal(err)
	}
	n := addOutsider(t, f, "Gamma", core.NodeConfig{Naming: nsORB.Addr()})
	followLink(t, n, "Alpha")
	s := n.NewSession()
	if _, err := s.Execute(context.Background(), `Join Coalition Records At "No Such Database";`); err == nil {
		t.Error("join at an unbound name accepted")
	}
	if _, err := s.Execute(context.Background(), "Join Coalition Records At Alpha;"); err != nil {
		t.Fatal(err)
	}
	if members, _ := a.CoDB.Members("Records"); len(members) != 3 {
		t.Errorf("Alpha's members after Gamma joined at a name = %d", len(members))
	}
}

// addOutsider adds a node that belongs to no coalition.
func addOutsider(t *testing.T, f *core.Federation, name string, cfg core.NodeConfig) *core.Node {
	t.Helper()
	cfg.Name, cfg.Engine, cfg.Schema = name, core.EngineSybase, "CREATE TABLE g (x INT);"
	n, err := f.AddNode(orb.OrbixWeb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// followLink has n, a node outside Records, link to it At the given
// reference, then find and enter Records through that link.
func followLink(t *testing.T, n *core.Node, at string) {
	t.Helper()
	ctx := context.Background()
	s := n.NewSession()
	if _, err := s.Execute(ctx, "Connect To Coalition Records;"); err == nil {
		t.Fatalf("%s entered Records before it had a link", n.Config.Name)
	}
	if _, err := s.Execute(ctx, "Create Service Link To_Records From Database "+n.Config.Name+
		" To Coalition Records At "+at+` Information "shared records";`); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(ctx, "Find Coalitions With Information shared records;")
	if err != nil || len(resp.Leads) != 1 || resp.Leads[0].Coalition != "Records" || resp.Leads[0].CoDBRef == "" {
		t.Fatalf("leads = %+v, %v", resp.Leads, err)
	}
	if _, err := s.Execute(ctx, "Connect To Coalition Records;"); err != nil {
		t.Fatalf("connect through the link: %v", err)
	}
	resp, err = s.Execute(ctx, "Display Instances Of Class Records;")
	if err != nil || !reflect.DeepEqual(resp.Names, []string{"Alpha", "Beta"}) {
		t.Errorf("members seen through the link = %v, %v", resp.Names, err)
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
