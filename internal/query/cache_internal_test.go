package query

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/codb"
	"repro/internal/gossip"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/wtl"
)

// gossipCoDB is a co-database served with a gossip agent whose own entry
// carries the co-database's live version, so processors can learn it.
type gossipCoDB struct {
	cd     *codb.CoDatabase
	agent  *gossip.Agent
	client *codb.Client // resolved on the shared test ORB
	ref    string
}

// serveGossipCoDBs activates one co-database per name on o, each a member of
// coalition C with every other, and each able to answer gossip.
func serveGossipCoDBs(t *testing.T, o *orb.ORB, names ...string) map[string]*gossipCoDB {
	t.Helper()
	iface := []codb.ExportedType{{Name: "R", Functions: []codb.ExportedFunction{
		{Name: "V", Returns: "int", Table: "r", ResultColumn: "v", ArgColumn: "k"},
	}}}
	out := map[string]*gossipCoDB{}
	var descs []*codb.SourceDescriptor
	for _, name := range names {
		g := &gossipCoDB{cd: codb.New(name)}
		g.agent = codb.NewGossipAgent(o, gossip.Config{Self: func() gossip.Entry {
			return gossip.Entry{Node: g.cd.Owner(), Version: g.cd.Version(), CoDBRef: g.ref}
		}})
		ior, err := o.Activate("CoDatabase/"+name, codb.NewServantWith(g.cd, codb.ServantOptions{Gossip: g.agent}))
		if err != nil {
			t.Fatal(err)
		}
		g.ref = orb.Stringify(ior)
		g.client = codb.NewClient(o.Resolve(ior))
		if err := g.cd.DefineCoalition("C", "", "records"); err != nil {
			t.Fatal(err)
		}
		descs = append(descs, &codb.SourceDescriptor{Name: name, Engine: "Oracle", CoDBRef: g.ref, Interface: iface})
		out[name] = g
	}
	for _, g := range out {
		for _, d := range descs {
			if err := g.cd.AddMember("C", d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func newTestORB(t *testing.T) *orb.ORB {
	t.Helper()
	o := orb.New(orb.Options{Product: orb.Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	return o
}

// TestGossipAppliedInvalidation: when gossip moves the store's version of S1,
// every answer cached from S1's co-database misses, in all ten key families,
// and everything cached from S10's — which shares S1's ORB, so its source
// name extends S1's — still hits.
func TestGossipAppliedInvalidation(t *testing.T) {
	o := newTestORB(t)
	cds := serveGossipCoDBs(t, o, "Home", "S1", "S10")
	home := cds["Home"]
	p, err := New(Config{ORB: o, Home: "Home", Local: home.client, Gossip: home.agent})
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
			out, err := l.get(cds[name].client, name)
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

	// S1's co-database moves; one gossip round carries its version to the
	// home store (the round contacts both peers, S10 unchanged).
	if err := cds["S1"].cd.DefineCoalition("Extra", "", "more records"); err != nil {
		t.Fatal(err)
	}
	home.agent.Tick(ctx)
	if v, _ := home.agent.Store().SourceVersion(source(cds["S1"].client)); v != cds["S1"].cd.Version() {
		t.Fatalf("home store holds S1 at %d, co-database at %d", v, cds["S1"].cd.Version())
	}
	expect("after S1's gossip", "S10", mdcache.Hit)
	expect("after S1's gossip", "S1", mdcache.Miss)
}

// TestSourceMatchesGossipSource: the cache and the gossip store name a
// co-database the same way, from a client or from the reference string.
func TestSourceMatchesGossipSource(t *testing.T) {
	o := newTestORB(t)
	for name, g := range serveGossipCoDBs(t, o, "S1", "S10") {
		if a, b := source(g.client), gossip.Source(g.ref); a != b || a == "" {
			t.Errorf("%s: cache source %q, gossip source %q", name, a, b)
		}
	}
	if got := gossip.Source("not-a-reference"); got != "" {
		t.Errorf("unparsable reference named %q", got)
	}
}

// TestUnknownPeerIsNeverInstalled: a peer whose gossip exchange fails (its
// servant predates gossip) is fetched on every read, answered correctly, and
// never installed — Misses grows and Len does not.
func TestUnknownPeerIsNeverInstalled(t *testing.T) {
	o := newTestORB(t)
	home := serveGossipCoDBs(t, o, "Home")["Home"]
	legacy := codb.New("Legacy")
	if err := legacy.DefineCoalition("Old", "", "old records"); err != nil {
		t.Fatal(err)
	}
	ior, err := o.Activate("CoDatabase/Legacy", codb.NewServant(legacy))
	if err != nil {
		t.Fatal(err)
	}
	peer := codb.NewClient(o.Resolve(ior))
	p, err := New(Config{ORB: o, Home: "Home", Local: home.client, Gossip: home.agent})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entries := p.cfg.Cache.Len()
	for i := 1; i <= 3; i++ {
		before := p.cfg.Cache.Stats.Misses.Load()
		names, out, err := p.cachedCoalitions(ctx, peer)
		if err != nil || out != mdcache.Miss || len(names) != 1 || names[0] != "Old" {
			t.Fatalf("read %d: %v, %v, %v", i, names, out, err)
		}
		if got := p.cfg.Cache.Stats.Misses.Load(); got != before+1 {
			t.Fatalf("read %d: misses %d -> %d, want +1", i, before, got)
		}
		if got := p.cfg.Cache.Len(); got != entries {
			t.Fatalf("read %d: %d entries, want %d", i, got, entries)
		}
	}
	if _, ok := home.agent.Store().SourceVersion(source(peer)); ok {
		t.Fatal("the store claims to know a peer that cannot gossip")
	}
}

// gatedServant holds the first instances call's answer — computed when the
// call arrives — until released, so a test can move the source in between.
type gatedServant struct {
	orb.Servant
	gated   atomic.Bool
	arrived chan struct{}
	release chan struct{}
}

func (g *gatedServant) InvokeCtx(ctx context.Context, op string, args []idl.Any) (idl.Any, error) {
	res, err := g.Servant.(orb.ContextServant).InvokeCtx(ctx, op, args)
	if op == "instances" && g.gated.CompareAndSwap(false, true) {
		close(g.arrived)
		<-g.release
	}
	return res, err
}

// TestFetchOverlappingGossipApply: a fetch that began before gossip moved the
// store's version of its source returns its older answer to its own caller
// only. A reader arriving after the move does not wait for it, and once it
// lands, no read serves it: its stamp is the version read before the fetch.
func TestFetchOverlappingGossipApply(t *testing.T) {
	o := newTestORB(t)
	cds := serveGossipCoDBs(t, o, "Home", "S1")
	home, s1 := cds["Home"], cds["S1"]
	gate := &gatedServant{arrived: make(chan struct{}), release: make(chan struct{})}
	if err := o.Deactivate("CoDatabase/S1"); err != nil {
		t.Fatal(err)
	}
	gate.Servant = codb.NewServantWith(s1.cd, codb.ServantOptions{Gossip: s1.agent})
	if _, err := o.Activate("CoDatabase/S1", gate); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ORB: o, Home: "Home", Local: home.client, Gossip: home.agent})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := func(ds []*codb.SourceDescriptor) (out []string) {
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}

	type result struct {
		members []string
		out     mdcache.Outcome
		err     error
	}
	first := make(chan result, 1)
	go func() {
		ms, out, err := p.cachedInstances(ctx, s1.client, "C")
		first <- result{names(ms), out, err}
	}()
	<-gate.arrived
	if err := s1.cd.AddMember("C", &codb.SourceDescriptor{Name: "S2", Engine: "Oracle"}); err != nil {
		t.Fatal(err)
	}
	home.agent.Tick(ctx)
	if v, _ := home.agent.Store().SourceVersion(source(s1.client)); v != s1.cd.Version() {
		t.Fatalf("store holds S1 at %d, co-database at %d", v, s1.cd.Version())
	}

	ms, out, err := p.cachedInstances(ctx, s1.client, "C")
	if err != nil || out != mdcache.Miss || len(ms) != 3 {
		t.Fatalf("reader after the move: %v, %v, %v; want 3 members fetched", names(ms), out, err)
	}
	close(gate.release)
	r := <-first
	if r.err != nil || len(r.members) != 2 {
		t.Fatalf("overlapping fetch: %v, %v, %v; want its 2 members", r.members, r.out, r.err)
	}
	ms, out, err = p.cachedInstances(ctx, s1.client, "C")
	if err != nil || len(ms) != 3 {
		t.Fatalf("read after both fetches: %v, %v, %v; want 3 members", names(ms), out, err)
	}
}
