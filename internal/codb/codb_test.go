package codb

import (
	"context"
	"strings"
	"testing"

	"repro/internal/orb"
)

// newRBHCoDB builds a co-database resembling the Royal Brisbane Hospital's
// in the paper: member of Research and Medical, knowing two service links.
func newRBHCoDB(t *testing.T) *CoDatabase {
	t.Helper()
	cd := New("Royal Brisbane Hospital")
	if err := cd.DefineCoalition("Research", "", "medical research conducted in Queensland", "science"); err != nil {
		t.Fatal(err)
	}
	if err := cd.DefineCoalition("Medical", "", "hospitals and medical care providers"); err != nil {
		t.Fatal(err)
	}
	rbh := &SourceDescriptor{
		Name:            "Royal Brisbane Hospital",
		InformationType: "Research and Medical",
		Documentation:   "http://www.medicine.uq.edu.au/RBH",
		Location:        "dba.icis.qut.edu.au",
		Wrapper:         "WebTassiliOracle",
		Engine:          "Oracle",
		ORB:             "VisiBroker",
		Interface: []ExportedType{
			{
				Name: "ResearchProjects",
				Attributes: []TypedMember{
					{Type: "string", Name: "ResearchProjects.Title"},
					{Type: "string", Name: "ResearchProjects.Keywords"},
				},
				Functions: []ExportedFunction{{
					Name: "Funding", Returns: "real",
					Args:         []TypedMember{{Type: "string", Name: "ResearchProjects.Title"}},
					Table:        "ResearchProjects",
					ResultColumn: "Funding",
					ArgColumn:    "Title",
				}},
			},
			{Name: "PatientHistory"},
		},
	}
	if err := cd.AddMember("Research", rbh); err != nil {
		t.Fatal(err)
	}
	if err := cd.AddMember("Medical", rbh); err != nil {
		t.Fatal(err)
	}
	if err := cd.AddMember("Research", &SourceDescriptor{
		Name: "QUT Research", InformationType: "Research"}); err != nil {
		t.Fatal(err)
	}
	if err := cd.AddLink(&ServiceLink{
		Name: "Medical_to_MedicalInsurance", FromKind: "coalition", From: "Medical",
		ToKind: "coalition", To: "Medical Insurance",
		Description: "insurance claims for medical procedures", InfoType: "Medical Insurance",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cd.AddLink(&ServiceLink{
		Name: "SGF_to_Medical", FromKind: "database", From: "State Government Funding",
		ToKind: "coalition", To: "Medical", InfoType: "funding",
	}); err != nil {
		t.Fatal(err)
	}
	return cd
}

func TestCoalitionDefinition(t *testing.T) {
	cd := newRBHCoDB(t)
	got := cd.Coalitions()
	if len(got) != 2 || got[0] != "Medical" || got[1] != "Research" {
		t.Errorf("coalitions = %v", got)
	}
	if !cd.HasCoalition("research") { // case-insensitive
		t.Error("HasCoalition failed")
	}
	if cd.HasCoalition("ServiceLink") || cd.HasCoalition("InformationType") {
		t.Error("reserved classes reported as coalitions")
	}
	if err := cd.DefineCoalition("Research", "", "dup"); err == nil {
		t.Error("duplicate coalition accepted")
	}
	if err := cd.DefineCoalition("ServiceLink", "", "x"); err == nil {
		t.Error("reserved name accepted")
	}
	if err := cd.DefineCoalition("X", "NoParent", "x"); err == nil {
		t.Error("unknown parent accepted")
	}
	desc, syns, ok := cd.CoalitionInfo("Research")
	if !ok || !strings.Contains(desc, "research") || len(syns) != 1 {
		t.Errorf("coalition info = %q %v %t", desc, syns, ok)
	}
}

func TestSubCoalitions(t *testing.T) {
	cd := newRBHCoDB(t)
	if err := cd.DefineCoalition("Cancer Research", "Research", "cancer studies"); err != nil {
		t.Fatal(err)
	}
	subs, err := cd.SubCoalitions("Research", true)
	if err != nil || len(subs) != 1 || subs[0] != "Cancer Research" {
		t.Errorf("subs = %v, %v", subs, err)
	}
	// Member of sub-coalition appears in parent's deep extent.
	if err := cd.AddMember("Cancer Research", &SourceDescriptor{
		Name: "Qld Cancer Fund", InformationType: "cancer research funding"}); err != nil {
		t.Fatal(err)
	}
	members, _ := cd.Members("Research")
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	if len(members) != 3 {
		t.Errorf("deep members = %v", names)
	}
	if _, err := cd.SubCoalitions("Nope", true); err == nil {
		t.Error("unknown coalition accepted")
	}
}

func TestMembership(t *testing.T) {
	cd := newRBHCoDB(t)
	memberOf := cd.MemberOf()
	if len(memberOf) != 2 {
		t.Errorf("MemberOf = %v", memberOf)
	}
	if err := cd.AddMember("Research", &SourceDescriptor{Name: "QUT Research"}); err == nil {
		t.Error("duplicate member accepted")
	}
	if err := cd.AddMember("Research", &SourceDescriptor{}); err == nil {
		t.Error("nameless member accepted")
	}
	if err := cd.AddMember("Nope", &SourceDescriptor{Name: "x"}); err == nil {
		t.Error("unknown coalition accepted")
	}
	if err := cd.RemoveMember("Research", "QUT Research"); err != nil {
		t.Fatal(err)
	}
	if err := cd.RemoveMember("Research", "QUT Research"); err == nil {
		t.Error("double remove accepted")
	}
	members, _ := cd.Members("Research")
	if len(members) != 1 {
		t.Errorf("members after remove = %d", len(members))
	}
}

func TestFindSourceAndInterface(t *testing.T) {
	cd := newRBHCoDB(t)
	d, ok := cd.FindSource("royal brisbane hospital")
	if !ok {
		t.Fatal("FindSource failed")
	}
	if d.Wrapper != "WebTassiliOracle" || d.Engine != "Oracle" {
		t.Errorf("descriptor = %+v", d)
	}
	et, ok := d.Type("researchprojects")
	if !ok {
		t.Fatal("exported type lookup failed")
	}
	fn, ok := et.Function("funding")
	if !ok || fn.ResultColumn != "Funding" || fn.Table != "ResearchProjects" {
		t.Errorf("function = %+v", fn)
	}
	decl := et.Declaration()
	if !strings.Contains(decl, "Type ResearchProjects") ||
		!strings.Contains(decl, "attribute string ResearchProjects.Title;") ||
		!strings.Contains(decl, "function real Funding(") {
		t.Errorf("declaration:\n%s", decl)
	}
	if _, ok := cd.FindSource("Nobody"); ok {
		t.Error("phantom source found")
	}
}

func TestServiceLinks(t *testing.T) {
	cd := newRBHCoDB(t)
	links := cd.Links()
	if len(links) != 2 {
		t.Fatalf("links = %d", len(links))
	}
	// Coalition-from links are CoalitionLink instances; database-from links
	// are DatabaseLink instances (the paper's two sub-schemas).
	co, _ := cd.DB().Extent(ClassCoalitionLink, false)
	dbl, _ := cd.DB().Extent(ClassDatabaseLink, false)
	if len(co) != 1 || len(dbl) != 1 {
		t.Errorf("coalition links = %d, database links = %d", len(co), len(dbl))
	}
	if err := cd.AddLink(&ServiceLink{Name: "SGF_to_Medical"}); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := cd.AddLink(&ServiceLink{}); err == nil {
		t.Error("nameless link accepted")
	}
}

func TestFindCoalitions(t *testing.T) {
	cd := newRBHCoDB(t)
	// The paper's query: "Find Coalitions With Information Medical Research"
	matches := cd.FindCoalitions("Medical Research")
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	// Both coalitions fully match: RBH advertises information type
	// "Research and Medical" in each. Ties break alphabetically.
	if matches[0].Coalition != "Medical" || matches[0].Score != 1 ||
		matches[1].Coalition != "Research" || matches[1].Score != 1 {
		t.Errorf("matches = %+v", matches)
	}
	// Synonyms match.
	matches = cd.FindCoalitions("science")
	if len(matches) != 1 || matches[0].Coalition != "Research" {
		t.Errorf("synonym match = %+v", matches)
	}
	// Connectives are ignored.
	matches = cd.FindCoalitions("research AND medical")
	if len(matches) != 2 {
		t.Errorf("connective handling = %+v", matches)
	}
	if got := cd.FindCoalitions(""); got != nil {
		t.Errorf("empty topic matched %v", got)
	}
	if got := cd.FindCoalitions("quantum chromodynamics"); len(got) != 0 {
		t.Errorf("irrelevant topic matched %v", got)
	}
}

func TestFindLinks(t *testing.T) {
	cd := newRBHCoDB(t)
	// The paper's second walkthrough: "Medical Insurance" is not a local
	// coalition but the Medical coalition has a service link to it.
	matches := cd.FindLinks("Medical Insurance")
	if len(matches) == 0 {
		t.Fatal("no link matches")
	}
	if matches[0].Coalition != "Medical Insurance" || !strings.HasPrefix(matches[0].Via, "link:") {
		t.Errorf("link match = %+v", matches[0])
	}
}

func TestDescriptorAnyRoundTrip(t *testing.T) {
	cd := newRBHCoDB(t)
	d, _ := cd.FindSource("Royal Brisbane Hospital")
	got, err := DescriptorFromAny(d.ToAny())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || got.Wrapper != d.Wrapper || len(got.Interface) != 2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DescriptorFromAny(matchToAny(Match{}).Fields()[0].Value); err == nil {
		t.Error("non-struct accepted")
	}
	l := &ServiceLink{Name: "n", From: "a", To: "b", InfoType: "t"}
	gl, err := LinkFromAny(l.ToAny())
	if err != nil || gl.Name != "n" || gl.To != "b" {
		t.Errorf("link round trip = %+v, %v", gl, err)
	}
}

// TestServantOverIIOP exercises the full meta-data layer path through the
// ORB, including dynamic advertisement from a remote node.
func TestServantOverIIOP(t *testing.T) {
	server := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	cd := newRBHCoDB(t)
	ior, err := server.Activate("CoDatabase/RBH", NewServant(cd))
	if err != nil {
		t.Fatal(err)
	}

	clientORB := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	defer clientORB.Shutdown()
	c := NewClient(clientORB.Resolve(ior))

	owner, err := c.Owner(context.Background())
	if err != nil || owner != "Royal Brisbane Hospital" {
		t.Fatalf("owner = %q, %v", owner, err)
	}
	matches, err := c.FindCoalitions(context.Background(), "Medical Research")
	if err != nil || len(matches) != 2 || matches[0].Coalition != "Medical" {
		t.Errorf("remote find = %+v, %v", matches, err)
	}
	links, err := c.FindLinks(context.Background(), "Medical Insurance")
	if err != nil || len(links) == 0 {
		t.Errorf("remote find links = %+v, %v", links, err)
	}
	cos, err := c.Coalitions(context.Background())
	if err != nil || len(cos) != 2 {
		t.Errorf("remote coalitions = %v, %v", cos, err)
	}
	mo, err := c.MemberOf(context.Background())
	if err != nil || len(mo) != 2 {
		t.Errorf("remote member_of = %v, %v", mo, err)
	}
	insts, err := c.Instances(context.Background(), "Research")
	if err != nil || len(insts) != 2 {
		t.Fatalf("remote instances = %v, %v", insts, err)
	}
	desc, _, err := c.CoalitionInfo(context.Background(), "Research")
	if err != nil || !strings.Contains(desc, "research") {
		t.Errorf("remote coalition info = %q, %v", desc, err)
	}
	ai, err := c.AccessInfo(context.Background(), "Royal Brisbane Hospital")
	if err != nil || ai.Location != "dba.icis.qut.edu.au" {
		t.Errorf("remote access info = %+v, %v", ai, err)
	}
	url, _, err := c.Document(context.Background(), "Royal Brisbane Hospital")
	if err != nil || url != "http://www.medicine.uq.edu.au/RBH" {
		t.Errorf("remote document = %q, %v", url, err)
	}
	all, err := c.Links(context.Background())
	if err != nil || len(all) != 2 {
		t.Errorf("remote links = %v, %v", all, err)
	}

	// Dynamic join from a remote node.
	if err := c.Advertise(context.Background(), "Medical", &SourceDescriptor{
		Name: "Prince Charles Hospital", InformationType: "Medical"}); err != nil {
		t.Fatal(err)
	}
	members, _ := cd.Members("Medical")
	if len(members) != 2 {
		t.Errorf("members after remote advertise = %d", len(members))
	}
	if err := c.RemoveMember(context.Background(), "Medical", "Prince Charles Hospital"); err != nil {
		t.Fatal(err)
	}
	// Errors surface as typed user exceptions.
	if _, err := c.Instances(context.Background(), "Nope"); err == nil {
		t.Error("unknown coalition accepted remotely")
	} else if ue, ok := err.(*orb.UserException); !ok || ue.Name != "CoDatabaseError" {
		t.Errorf("error shape = %v", err)
	}
	if _, err := c.AccessInfo(context.Background(), "Nobody"); err == nil {
		t.Error("unknown source accepted remotely")
	}
	if _, _, err := c.CoalitionInfo(context.Background(), "Nope"); err == nil {
		t.Error("unknown coalition info accepted remotely")
	}
}

func TestSubclassesOverIIOP(t *testing.T) {
	server := orb.New(orb.Options{Product: orb.VisiBroker})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	cd := newRBHCoDB(t)
	if err := cd.DefineCoalition("Cancer Research", "Research", "cancer"); err != nil {
		t.Fatal(err)
	}
	ior, _ := server.Activate("CoDatabase/RBH", NewServant(cd))
	c := NewClient(server.Resolve(ior)) // colocated path
	subs, err := c.SubCoalitions(context.Background(), "Research", true)
	if err != nil || len(subs) != 1 || subs[0] != "Cancer Research" {
		t.Errorf("remote subclasses = %v, %v", subs, err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	cd := newRBHCoDB(t)
	cd.SetOwnerDescriptor(&SourceDescriptor{Name: "RBH owner", Engine: "Oracle"})
	data, err := cd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner() != cd.Owner() {
		t.Errorf("owner = %q", got.Owner())
	}
	if len(got.Coalitions()) != 2 {
		t.Errorf("coalitions = %v", got.Coalitions())
	}
	members, err := got.Members("Research")
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v, %v", members, err)
	}
	// Exported interfaces survive (stored as JSON attributes).
	d, ok := got.FindSource("Royal Brisbane Hospital")
	if !ok {
		t.Fatal("descriptor lost")
	}
	if _, ok := d.Type("ResearchProjects"); !ok {
		t.Error("exported type lost in snapshot")
	}
	if len(got.Links()) != 2 {
		t.Errorf("links = %v", got.Links())
	}
	if od, ok := got.FindSource("RBH owner"); !ok || od.Engine != "Oracle" {
		t.Errorf("owner descriptor = %+v", od)
	}
	// Restored co-database is fully usable: add more state.
	if err := got.DefineCoalition("New Topic", "", "post-restore"); err != nil {
		t.Fatal(err)
	}
	// Garbage is rejected.
	if _, err := Restore([]byte("{\"db\": \"nope\"}")); err == nil {
		t.Error("garbage restored")
	}
	if _, err := Restore([]byte("not json")); err == nil {
		t.Error("non-json restored")
	}
	// A plain oodb snapshot is not a co-database.
	other := New("x")
	plain, _ := other.DB().Snapshot()
	wrapped := []byte("{\"owner\":\"x\",\"db\":" + string(mustJSONArrayless(plain)) + "}")
	_ = wrapped // plain oodb snapshot IS a codb schema here; skip negative case
}

func mustJSONArrayless(b []byte) []byte { return b }

func TestParseInterfaceFromWebTassili(t *testing.T) {
	ets, err := ParseInterface(`
Type ResearchProjects {
    attribute string ResearchProjects.Title;
    function real Funding(string ResearchProjects.Title x, Predicate(x));
}
Type PatientHistory {
    function string Description(string Patient.Name, date History.DateRecorded);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ets) != 2 {
		t.Fatalf("types = %d", len(ets))
	}
	fn, ok := ets[0].Function("Funding")
	if !ok || fn.Table != "ResearchProjects" || fn.ResultColumn != "Funding" || fn.ArgColumn != "Title" {
		t.Errorf("funding = %+v", fn)
	}
	fn, ok = ets[1].Function("Description")
	if !ok || fn.Table != "Patient" || fn.ArgColumn != "Name" {
		t.Errorf("description = %+v", fn)
	}
	// Function with no args cannot infer a relation.
	if _, err := ParseInterface("Type X { function int F(); }"); err == nil {
		t.Error("zero-arg function accepted")
	}
	if _, err := ParseInterface("garbage"); err == nil {
		t.Error("garbage accepted")
	}
	// Unqualified argument falls back to the type's own name as relation.
	ets, err = ParseInterface("Type Items { function int Price(string Name); }")
	if err != nil {
		t.Fatal(err)
	}
	if fn, _ := ets[0].Function("Price"); fn.Table != "Items" || fn.ArgColumn != "Name" {
		t.Errorf("fallback = %+v", fn)
	}
}
