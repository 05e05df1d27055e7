package medworld

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/orb"
)

// buildWorld constructs the healthcare world once per test binary; it is
// read-mostly and the mutating tests operate on disjoint state.
var (
	worldOnce sync.Once
	world     *World
	worldErr  error
)

func sharedWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = Build()
	})
	if worldErr != nil {
		t.Fatalf("Build: %v", worldErr)
	}
	return world
}

// TestFigure1Topology verifies the coalition/service-link topology of
// Figure 1: fourteen databases, five coalitions, nine service links.
func TestFigure1Topology(t *testing.T) {
	w := sharedWorld(t)
	if got := len(DatabaseNames()); got != 14 {
		t.Errorf("databases = %d, want 14", got)
	}
	if got := len(w.NodeNames()); got != 14 {
		t.Errorf("nodes = %d, want 14", got)
	}
	if got := len(w.Coalitions()); got != 5 {
		t.Errorf("coalitions = %d, want 5", got)
	}
	if got := len(w.Links()); got != 9 {
		t.Errorf("service links = %d, want 9", got)
	}
	// RBH is a member of exactly Research and Medical (§2.2).
	rbh, _ := w.Node(RBH)
	memberOf := rbh.CoDB.MemberOf()
	if len(memberOf) != 2 || memberOf[0] != CoalitionMedical || memberOf[1] != CoalitionResearch {
		t.Errorf("RBH member of %v", memberOf)
	}
	// RBH's co-database knows the Medical coalition's outgoing link and the
	// inbound links recorded against Medical members.
	names := make([]string, 0)
	for _, l := range rbh.CoDB.Links() {
		names = append(names, l.Name)
	}
	if !contains(names, "Medical_to_MedicalInsurance") {
		t.Errorf("RBH links = %v", names)
	}
	// A standalone database (Medicare) belongs to no coalition.
	medicare, _ := w.Node(Medicare)
	if got := medicare.CoDB.MemberOf(); len(got) != 0 {
		t.Errorf("Medicare member of %v", got)
	}
	// Knowledge partitioning: QUT (Research only) must not know the
	// Medical Insurance coalition.
	qut, _ := w.Node(QUT)
	if qut.CoDB.HasCoalition(CoalitionInsurance) {
		t.Error("QUT knows Medical Insurance; knowledge should be partitioned")
	}
	// Membership counts per Figure 1.
	wantMembers := map[string]int{
		CoalitionResearch: 4, CoalitionMedical: 2, CoalitionInsurance: 2,
		CoalitionUnion: 1, CoalitionSuper: 1,
	}
	for c, want := range wantMembers {
		if got := len(w.Members(c)); got != want {
			t.Errorf("coalition %s has %d members, want %d", c, got, want)
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TestFigure2Implementation verifies the implementation map of Figure 2:
// the five engines, the three ORB products, the engine-to-ORB wiring, and
// that every database's ISI and co-database are reachable across ORBs via
// IIOP.
func TestFigure2Implementation(t *testing.T) {
	w := sharedWorld(t)
	engines := map[string]int{}
	products := map[orb.Product]int{}
	for _, name := range DatabaseNames() {
		n, ok := w.Node(name)
		if !ok {
			t.Fatalf("node %s missing", name)
		}
		engines[n.Config.Engine]++
		products[n.Config.ORB.Product()]++
		// Figure 2's wiring constraints.
		switch n.Config.Engine {
		case core.EngineOracle:
			if n.Config.ORB.Product() != orb.VisiBroker {
				t.Errorf("%s: Oracle must be on VisiBroker, got %s", name, n.Config.ORB.Product())
			}
		case core.EngineMSQL, core.EngineDB2, core.EngineOntos:
			if n.Config.ORB.Product() != orb.OrbixWeb {
				t.Errorf("%s: %s must be on OrbixWeb, got %s", name, n.Config.Engine, n.Config.ORB.Product())
			}
		case core.EngineObjectStore:
			if n.Config.ORB.Product() != orb.Orbix {
				t.Errorf("%s: ObjectStore must be on Orbix, got %s", name, n.Config.ORB.Product())
			}
		}
	}
	if len(engines) != 5 {
		t.Errorf("engines = %v, want 5 kinds", engines)
	}
	if len(products) != 3 {
		t.Errorf("ORB products = %v, want 3", products)
	}

	// 28 databases total: every node has a database and a co-database.
	total := 0
	for _, name := range DatabaseNames() {
		n, _ := w.Node(name)
		if n.RelDB != nil || n.OODB != nil {
			total++
		}
		if n.CoDB != nil {
			total++
		}
	}
	if total != 28 {
		t.Errorf("databases + co-databases = %d, want 28", total)
	}

	// Cross-ORB reachability: a client on each ORB product can locate and
	// query every other product's servants over IIOP. Each query reads a
	// table only that node has, so the row proves which engine answered.
	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	defer client.Shutdown()
	for _, c := range []struct{ name, q, want string }{ // one per ORB product
		{RBH, "SELECT name FROM patient WHERE patient_id = 1", "A. Howe"},
		{AMP, "SELECT Fund FROM SuperAccount WHERE Holder = 'D. Park'", "conservative"},
		{Centre, "SELECT name FROM benefits WHERE person_id = 1", "C. Ng"},
	} {
		name := c.name
		n, _ := w.Node(name)
		ref, err := client.ResolveString(n.Descriptor.ISIRef)
		if err != nil {
			t.Fatalf("%s ISI ref: %v", name, err)
		}
		found, err := ref.Locate()
		if err != nil || !found {
			t.Errorf("%s ISI not locatable over IIOP: %t, %v", name, found, err)
		}
		it, err := gateway.NewRemoteConn(ref).QueryCursor(context.Background(), c.q, 1)
		if err != nil {
			t.Fatalf("%s cursor: %v", name, err)
		}
		res, err := gateway.Drain(context.Background(), it)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != c.want {
			t.Errorf("%s remote rows = %+v, %v; want %q", name, res, err, c.want)
		}
	}
	if client.Stats.IIOPCalls.Load() == 0 {
		t.Error("no IIOP calls recorded; test did not cross the socket")
	}
}

// TestSection23Walkthrough replays the paper's §2.3 session from QUT
// Research: discovery, connection, browsing, documentation, access
// information, and the Funding() function translated to SQL.
func TestSection23Walkthrough(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()

	// "Find Coalitions With Information Medical Research;"
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information Medical Research;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leads) == 0 || resp.Leads[0].Coalition != CoalitionResearch ||
		resp.Leads[0].Score < 1 || resp.Leads[0].Via != "local" {
		t.Fatalf("leads = %+v", resp.Leads)
	}

	// "Connect To Coalition Research;"
	if _, err := s.Execute(context.Background(), "Connect To Coalition Research;"); err != nil {
		t.Fatal(err)
	}
	if s.Coalition != CoalitionResearch {
		t.Fatalf("session coalition = %q", s.Coalition)
	}

	// "Display SubClasses of Class Research" — none in the base world.
	resp, err = s.Execute(context.Background(), "Display SubClasses of Class Research;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Names) != 0 {
		t.Errorf("subclasses = %v", resp.Names)
	}

	// "Display Instances of Class Research" — the four Research members.
	resp, err = s.Execute(context.Background(), "Display Instances of Class Research;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 4 || !contains(resp.Names, RBH) {
		t.Fatalf("instances = %v", resp.Names)
	}

	// "Display Document of Instance Royal Brisbane Hospital Of Class Research;"
	resp, err = s.Execute(context.Background(), "Display Document of Instance Royal Brisbane Hospital Of Class Research;")
	if err != nil {
		t.Fatal(err)
	}
	if resp.DocURL != "http://www.medicine.uq.edu.au/RBH" {
		t.Errorf("doc url = %q", resp.DocURL)
	}
	if !strings.Contains(resp.DocHTML, "Royal Brisbane Hospital") {
		t.Errorf("doc html missing content")
	}

	// "Display Access Information of Instance Royal Brisbane Hospital;"
	resp, err = s.Execute(context.Background(), "Display Access Information of Instance Royal Brisbane Hospital;")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Descriptor.Location != "dba.icis.qut.edu.au" {
		t.Errorf("location = %q", resp.Descriptor.Location)
	}
	if !strings.Contains(resp.Text, "Type ResearchProjects") ||
		!strings.Contains(resp.Text, "function real Funding(") {
		t.Errorf("access info text:\n%s", resp.Text)
	}

	// The Funding() invocation; the paper gives the exact SQL translation.
	resp, err = s.Execute(context.Background(), `Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs"));`)
	if err != nil {
		t.Fatal(err)
	}
	wantSQL := "SELECT a.funding FROM research_projects a WHERE a.Title = 'AIDS and drugs'"
	if !strings.EqualFold(resp.Translated, wantSQL) {
		t.Errorf("translated = %q, want %q", resp.Translated, wantSQL)
	}
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Float != 1250000 {
		t.Errorf("funding result = %+v", resp.Result.Rows)
	}
}

// TestInsuranceDiscovery replays the paper's second §2.3 walkthrough: a QUT
// researcher asks for Medical Insurance, which no local coalition or link
// offers; the system discovers it through the Royal Brisbane Hospital (a
// Research peer, member of Medical) whose coalition has a service link to
// the insurance coalition.
func TestInsuranceDiscovery(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()

	resp, err := s.Execute(context.Background(), `Find Coalitions With Information "Medical Insurance";`)
	if err != nil {
		t.Fatal(err)
	}
	var hit *struct {
		via string
		ref string
	}
	for _, l := range resp.Leads {
		if l.Coalition == CoalitionInsurance && l.Score >= 1 {
			hit = &struct {
				via string
				ref string
			}{l.Via, l.CoDBRef}
		}
	}
	if hit == nil {
		t.Fatalf("no full-score insurance lead in %+v", resp.Leads)
	}
	if !strings.HasPrefix(hit.via, "peer:"+RBH) || !strings.Contains(hit.via, "Medical_to_MedicalInsurance") {
		t.Errorf("lead via = %q", hit.via)
	}

	// The user investigates the coalition: connection hops through the peer
	// and the link to a member of the insurance coalition.
	if _, err := s.Execute(context.Background(), "Connect To Coalition Medical Insurance;"); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Execute(context.Background(), "Display Instances of Class Medical Insurance;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 2 || !contains(resp.Names, Medibank) || !contains(resp.Names, MBF) {
		t.Errorf("insurance members = %v", resp.Names)
	}
}

// TestFigure6QueryResult reproduces Figure 6: the native SQL query
// "select * from medical_students" against the Royal Brisbane Hospital,
// travelling through the wrapper/ISI/ORB path.
func TestFigure6QueryResult(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	if _, err := s.Execute(context.Background(), "Connect To Coalition Research;"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(context.Background(), `Query Royal Brisbane Hospital Using Native "select * from medical_students";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(resp.Result.Rows))
	}
	if len(resp.Result.Columns) != 4 || !strings.EqualFold(resp.Result.Columns[1], "name") {
		t.Errorf("columns = %v", resp.Result.Columns)
	}
	if !strings.Contains(resp.Text, "J. Chen") {
		t.Errorf("formatted result:\n%s", resp.Text)
	}
}

// TestFigure3LayerTrace verifies that a data query traverses the paper's
// four layers: query (parse + wrapper), communication (ORB), meta-data
// (co-database) and data (DBMS).
func TestFigure3LayerTrace(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	if _, err := s.Execute(context.Background(), "Find Coalitions With Information Medical Research;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), `Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On Royal Brisbane Hospital;`); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, ev := range s.Trace() {
		lines = append(lines, ev.String())
	}
	trace := strings.Join(lines, "\n")
	for _, layer := range []string{"query layer:", "communication layer:", "meta-data layer:", "data layer:"} {
		if !strings.Contains(trace, layer) {
			t.Errorf("trace missing %q:\n%s", layer, trace)
		}
	}
}

// TestFigure5HTMLDocument reproduces Figure 5: the browser layer serves RBH's
// documentation page, the HTML its co-database stores, over HTTP.
func TestFigure5HTMLDocument(t *testing.T) {
	w := sharedWorld(t)
	rbh, ok := w.Node(RBH)
	if !ok {
		t.Fatal("no RBH node")
	}
	want := rbh.Descriptor.DocumentHTML
	if !strings.Contains(want, "<html>") {
		t.Fatalf("RBH descriptor carries no HTML document: %q", want)
	}
	srv := httptest.NewServer(browser.NewServer(rbh).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/sources/" + url.PathEscape(RBH) + "/document")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("GET document = %s, %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), want) {
		t.Errorf("served page does not contain RBH's DocumentHTML:\n%s", body)
	}
}

// TestOntosSourceQueries exercises the OO engine path end-to-end: the
// Ambulance database runs on the Ontos stand-in behind OrbixWeb, queried
// through the OQL wrapper.
func TestOntosSourceQueries(t *testing.T) {
	w := sharedWorld(t)
	// Ambulance is standalone; query it from its own node's session.
	amb, _ := w.Node(Ambulance)
	s := amb.NewSession()
	resp, err := s.Execute(context.Background(), `Hospital(Callout.Suburb, (Callout.Suburb = "Herston")) On Ambulance;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Translated, "SELECT Hospital FROM Callout WHERE Suburb = 'Herston'") {
		t.Errorf("OQL translation = %q", resp.Translated)
	}
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Str != RBH {
		t.Errorf("result = %+v", resp.Result.Rows)
	}
}

// TestMSQLDialectSurfacesInFederation checks that vendor heterogeneity is
// visible through the full stack: Centre Link runs on mSQL, which rejects
// aggregates with a vendor-named error.
func TestMSQLDialectSurfacesInFederation(t *testing.T) {
	w := sharedWorld(t)
	cl, _ := w.Node(Centre)
	s := cl.NewSession()
	_, err := s.Execute(context.Background(), `Query Centre Link Using Native "SELECT COUNT(*) FROM benefits";`)
	if err == nil || !strings.Contains(err.Error(), "mSQL") {
		t.Errorf("mSQL aggregate error = %v", err)
	}
	resp, err := s.Execute(context.Background(), `Query Centre Link Using Native "SELECT name, fortnightly FROM benefits ORDER BY name";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("rows = %d", len(resp.Result.Rows))
	}
}

// TestSearchType finds sources by exported type from the connected context.
func TestSearchType(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	resp, err := s.Execute(context.Background(), "Search Type PatientHistory;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 1 || resp.Sources[0].Name != RBH {
		t.Errorf("search hits = %v", resp.Names)
	}
}

// TestDynamicEvolution exercises the paper's claim that coalitions change
// over time: a standalone database, given a service link to Medical, joins it
// through its own session, is discoverable, then leaves.
func TestDynamicEvolution(t *testing.T) {
	w, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	if err := w.AddLink(core.LinkSpec{Name: "Medicare_to_Medical", FromKind: "database", From: Medicare,
		ToKind: "coalition", To: CoalitionMedical, InfoType: "medical"}); err != nil {
		t.Fatal(err)
	}
	medicare, _ := w.Node(Medicare)
	s := medicare.NewSession()
	ctx := context.Background()
	join, leave := "Join Coalition "+CoalitionMedical+";", "Leave Coalition "+CoalitionMedical+";"
	if _, err := s.Execute(ctx, join); err != nil {
		t.Fatal(err)
	}
	rbh, _ := w.Node(RBH)
	members, err := rbh.CoDB.Members(CoalitionMedical)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Errorf("Medical members after join = %d", len(members))
	}
	// The newcomer now knows the coalition and its members.
	if got := medicare.CoDB.MemberOf(); len(got) != 1 || got[0] != CoalitionMedical {
		t.Errorf("Medicare member of %v", got)
	}
	if _, err := s.Execute(ctx, join); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Errorf("double join = %v, want already a member", err)
	}
	if _, err := s.Execute(ctx, "Join Coalition Nope;"); err == nil {
		t.Error("join of an unknown coalition accepted")
	}
	if _, err := s.Execute(ctx, leave); err != nil {
		t.Fatal(err)
	}
	members, _ = rbh.CoDB.Members(CoalitionMedical)
	if len(members) != 2 {
		t.Errorf("Medical members after leave = %d", len(members))
	}
	if _, err := s.Execute(ctx, leave); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Errorf("double leave = %v, want not a member", err)
	}
}

// TestFuncQueryOnInsuranceMember runs a typed query against a DB2 source
// reached through the discovery path, checking the DB2 wrapper.
func TestFuncQueryOnInsuranceMember(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	if _, err := s.Execute(context.Background(), "Connect To Coalition Medical Insurance;"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Execute(context.Background(), `Plan(Members.Name, (Members.Name = "B. Tran")) On MBF;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 1 || resp.Result.Rows[0][0].Str != "family" {
		t.Errorf("MBF plan = %+v", resp.Result.Rows)
	}
}

// TestUnknownTopicsAndSources covers resolution misses.
func TestUnknownTopicsAndSources(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information quantum chromodynamics;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Leads) != 0 {
		t.Errorf("leads for nonsense topic = %+v", resp.Leads)
	}
	if _, err := s.Execute(context.Background(), "Connect To Coalition Nonexistent;"); err == nil {
		t.Error("connect to unknown coalition succeeded")
	}
	if _, err := s.Execute(context.Background(), `Query Nobody Using Native "SELECT 1";`); err == nil {
		t.Error("query against unknown source succeeded")
	}
	if _, err := s.Execute(context.Background(), `Nothing(ResearchProjects.Title) On Royal Brisbane Hospital;`); err == nil {
		t.Error("unknown exported function accepted")
	}
}

// TestCoalitionFanOutQuery decomposes a typed query over every Research
// member exporting a Budget-like function; only exporters participate.
func TestCoalitionFanOutQuery(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	resp, err := s.Execute(context.Background(), `Funding(ResearchProjects.Title, (ResearchProjects.Title LIKE "%")) On Coalition Research;`)
	if err != nil {
		t.Fatal(err)
	}
	// Only RBH exports Funding; merged result gets a source column.
	if len(resp.Result.Columns) == 0 || resp.Result.Columns[0] != "source" {
		t.Fatalf("columns = %v", resp.Result.Columns)
	}
	if len(resp.Result.Rows) != 3 {
		t.Errorf("rows = %d, want 3 (RBH research projects)", len(resp.Result.Rows))
	}
	for _, row := range resp.Result.Rows {
		if row[0].Str != RBH {
			t.Errorf("row source = %v", row[0])
		}
	}
	// A function nobody exports fails loudly.
	if _, err := s.Execute(context.Background(), `Nothing(X.Y) On Coalition Research;`); err == nil {
		t.Error("fan-out of unknown function accepted")
	}
}

// TestSearchTypeStructural requires attributes of the exported type.
func TestSearchTypeStructural(t *testing.T) {
	w := sharedWorld(t)
	qut, _ := w.Node(QUT)
	s := qut.NewSession()
	resp, err := s.Execute(context.Background(), `Search Type ResearchProjects With Structure (attribute string ResearchProjects.Title; attribute date BeginDate;);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 1 || resp.Sources[0].Name != RBH {
		t.Errorf("structural hits = %v", resp.Names)
	}
	// A structure the type does not declare yields no hits.
	resp, err = s.Execute(context.Background(), `Search Type ResearchProjects With Structure (attribute string NoSuchAttr;);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 0 {
		t.Errorf("false structural hits = %v", resp.Names)
	}
	// Type mismatch on a declared attribute also misses.
	resp, err = s.Execute(context.Background(), `Search Type ResearchProjects With Structure (attribute int Title;);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sources) != 0 {
		t.Errorf("type-mismatched structural hits = %v", resp.Names)
	}
}
