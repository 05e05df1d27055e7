package query

import (
	"context"
	"testing"

	"repro/internal/codb"
	"repro/internal/gossip"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/wtl"
)

// TestGossipAppliedInvalidation: a newer gossip entry for S1 drops every
// answer cached from S1's co-database, in every key family, and nothing
// cached from S10's — which shares S1's ORB, so its source key extends S1's.
// Entries without a reference, or with one that does not parse, drop nothing.
func TestGossipAppliedInvalidation(t *testing.T) {
	o := orb.New(orb.Options{Product: orb.Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	iface := []codb.ExportedType{{Name: "R", Functions: []codb.ExportedFunction{
		{Name: "V", Returns: "int", Table: "r", ResultColumn: "v", ArgColumn: "k"},
	}}}
	clients := map[string]*codb.Client{}
	for _, name := range []string{"Home", "S1", "S10"} {
		cd := codb.New(name)
		ior, err := o.Activate("CoDatabase/"+name, codb.NewServant(cd))
		if err != nil {
			t.Fatal(err)
		}
		d := &codb.SourceDescriptor{Name: name, Engine: "Oracle", CoDBRef: orb.Stringify(ior), Interface: iface}
		if err := cd.DefineCoalition("C", "", "records"); err != nil {
			t.Fatal(err)
		}
		if err := cd.AddMember("C", d); err != nil {
			t.Fatal(err)
		}
		clients[name] = codb.NewClient(o.Resolve(ior))
	}
	p, err := New(Config{ORB: o, Home: "Home", Local: clients["Home"]})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := wtl.Parse(`V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.(*wtl.FuncQuery)

	// One lookup per key family. The two whose fetch goes through other
	// families (plan, peers) come last, so a refetch cannot refill a family
	// before it is checked.
	ctx := context.Background()
	type lookup struct {
		family string
		get    func(c *codb.Client, name string) (mdcache.Outcome, error)
	}
	lookups := []lookup{
		{"probe", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedProbe(ctx, c, "records")
			return out, err
		}},
		{"findc", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedFindCoalitions(ctx, c, "records")
			return out, err
		}},
		{"findl", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedFindLinks(ctx, c, "records")
			return out, err
		}},
		{"coalitions", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedCoalitions(ctx, c)
			return out, err
		}},
		{"memberof", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedMemberOf(ctx, c)
			return out, err
		}},
		{"instances", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedInstances(ctx, c, "C")
			return out, err
		}},
		{"links", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedLinks(ctx, c)
			return out, err
		}},
		{"access", func(c *codb.Client, name string) (mdcache.Outcome, error) {
			_, out, err := p.cachedAccessInfo(ctx, c, name)
			return out, err
		}},
		{"plan", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedPlan(ctx, c, q, true)
			return out, err
		}},
		{"peers", func(c *codb.Client, _ string) (mdcache.Outcome, error) {
			_, out, err := p.cachedPeerGroups(ctx, c)
			return out, err
		}},
	}
	expect := func(when, name string, want mdcache.Outcome) {
		t.Helper()
		for _, l := range lookups {
			out, err := l.get(clients[name], name)
			if err != nil {
				t.Fatalf("%s: %s %s: %v", when, name, l.family, err)
			}
			if out != want {
				t.Errorf("%s: %s %s lookup = %v, want %v", when, name, l.family, out, want)
			}
		}
	}
	expect("cold", "S1", mdcache.Miss)
	expect("cold", "S10", mdcache.Miss)
	expect("warm", "S1", mdcache.Hit)
	expect("warm", "S10", mdcache.Hit)

	p.GossipApplied([]gossip.Entry{
		{Node: "S1", Version: 40, CoDBRef: orb.Stringify(clients["S1"].Ref().IOR())},
		{Node: "S2", Version: 7}, // no reference: nothing to drop
		{Node: "SX", Version: 1, CoDBRef: "not-a-reference"},
	})
	expect("after S1's gossip", "S10", mdcache.Hit)
	expect("after S1's gossip", "S1", mdcache.Miss)
}
