package query_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/trace"
)

// opCounter wraps a co-database servant and counts invocations per operation,
// so tests can assert how many probe calls actually crossed the wire.
type opCounter struct {
	inner orb.Servant

	mu     sync.Mutex
	counts map[string]int
}

func newOpCounter(inner orb.Servant) *opCounter {
	return &opCounter{inner: inner, counts: map[string]int{}}
}

func (c *opCounter) bump(op string) {
	c.mu.Lock()
	c.counts[op]++
	c.mu.Unlock()
}

func (c *opCounter) count(op string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[op]
}

func (c *opCounter) InterfaceDef() *idl.Interface { return c.inner.InterfaceDef() }

func (c *opCounter) Invoke(op string, args []idl.Any) (idl.Any, error) {
	c.bump(op)
	return c.inner.Invoke(op, args)
}

func (c *opCounter) InvokeCtx(ctx context.Context, op string, args []idl.Any) (idl.Any, error) {
	c.bump(op)
	if cs, ok := c.inner.(orb.ContextServant); ok {
		return cs.InvokeCtx(ctx, op, args)
	}
	return c.inner.Invoke(op, args)
}

// countPeerOps replaces a node's co-database servant with a counting wrapper
// that still answers gossip. The object key is unchanged, so descriptors that
// embed the old IOR still resolve to the wrapped servant.
func countPeerOps(t *testing.T, n *core.Node) *opCounter {
	t.Helper()
	key := "CoDatabase/" + n.Config.Name
	if err := n.Config.ORB.Deactivate(key); err != nil {
		t.Fatal(err)
	}
	counter := newOpCounter(codb.NewServantWith(n.CoDB, codb.ServantOptions{Gossip: n.Gossip}))
	if _, err := n.Config.ORB.Activate(key, counter); err != nil {
		t.Fatal(err)
	}
	return counter
}

// TestRepeatTopicDiscoveryCacheHit exercises the repeat-discovery fast path:
// the first resolve of a topic fans out to the coalition peer, the second is
// answered entirely from the metadata cache — no wire calls, probes flagged
// Cached in the member statuses.
func TestRepeatTopicDiscoveryCacheHit(t *testing.T) {
	_, a, b := twoNodeFixture(t)
	counter := countPeerOps(t, b)
	s := a.NewSession()

	// "zebra" matches nothing locally, so discovery escalates to stage 3 and
	// probes Beta.
	resp, err := s.Execute(context.Background(), "Find Coalitions With Information zebra;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Members) != 1 || resp.Members[0].Member != "Beta" {
		t.Fatalf("first resolve probes = %+v", resp.Members)
	}
	if resp.Members[0].Cached {
		t.Error("first probe reported cached")
	}
	if got := counter.count("find_coalitions"); got != 1 {
		t.Fatalf("find_coalitions after first resolve = %d", got)
	}

	resp, err = s.Execute(context.Background(), "Find Coalitions With Information zebra;")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Members) != 1 || !resp.Members[0].Cached {
		t.Fatalf("second resolve not served from cache: %+v", resp.Members)
	}
	if got := counter.count("find_coalitions"); got != 1 {
		t.Errorf("find_coalitions after cached resolve = %d, want 1", got)
	}
	if got := counter.count("find_links"); got != 1 {
		t.Errorf("find_links after cached resolve = %d, want 1", got)
	}
	if st := a.MDCache.Snapshot(); st.Hits == 0 {
		t.Errorf("no cache hits recorded: %+v", st)
	}
}

// TestConcurrentResolveSingleflight asserts the coalescing guarantee: N
// concurrent resolves of the same cold topic issue exactly one probe fan-out
// (one find_coalitions + one find_links per peer), everyone else rides the
// leader's flight.
func TestConcurrentResolveSingleflight(t *testing.T) {
	_, a, b := twoNodeFixture(t)
	counter := countPeerOps(t, b)

	const N = 16
	var wg sync.WaitGroup
	errs := make(chan error, N)
	start := make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s := a.NewSession()
			if _, err := s.Execute(context.Background(), "Find Coalitions With Information zebra;"); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := counter.count("find_coalitions"); got != 1 {
		t.Errorf("find_coalitions across %d concurrent resolves = %d, want 1", N, got)
	}
	if got := counter.count("find_links"); got != 1 {
		t.Errorf("find_links across %d concurrent resolves = %d, want 1", N, got)
	}
	st := a.MDCache.Snapshot()
	if st.Coalesced+st.Hits == 0 {
		t.Errorf("no coalescing recorded across concurrent resolves: %+v", st)
	}
}

// TestCacheSeesJoinThroughLocalVersion covers eager visibility of membership
// churn: the local co-database verifies every hit against its schema version,
// so a peer joining a coalition (which writes a member into our co-database
// and bumps the version) is visible on the very next statement, cache or not.
func TestCacheSeesJoinThroughLocalVersion(t *testing.T) {
	f, a, _ := twoNodeFixture(t)
	s := a.NewSession()

	resp, err := s.Execute(context.Background(), "Display Instances of Class Records;")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Text, "Gamma") {
		t.Fatal("Gamma visible before joining")
	}

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
	if _, err := c.NewSession().Execute(context.Background(), "Join Coalition Records;"); err != nil {
		t.Fatal(err)
	}

	// Same session, same statement: the cached member list must be discarded
	// because the local co-database's version moved.
	resp, err = s.Execute(context.Background(), "Display Instances of Class Records;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Gamma") {
		t.Errorf("join not visible through cache:\n%s", resp.Text)
	}
}

// TestRemotePeerRevalidationAfterGossip covers the remote-churn path: a
// peer's probe results are served from the cache while the home node's gossip
// store holds the peer at the version they were fetched under, and the gossip
// round that carries the peer's schema change makes the next resolve refetch.
func TestRemotePeerRevalidationAfterGossip(t *testing.T) {
	f, err := core.NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	a, err := f.AddNode(orb.VisiBroker, core.NodeConfig{
		Name: "Alpha", Engine: core.EngineOracle,
		InformationType: "alpha records",
		Schema:          "CREATE TABLE r (k INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AddNode(orb.Orbix, core.NodeConfig{
		Name: "Beta", Engine: core.EngineDB2,
		InformationType: "beta records",
		Schema:          "CREATE TABLE s (x INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DefineCoalition("Records", "", "shared records", "Alpha", "Beta"); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	s := a.NewSession()
	zebraLead := func() bool {
		t.Helper()
		resp, err := s.Execute(ctx, "Find Coalitions With Information zebra;")
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range resp.Leads {
			if strings.EqualFold(l.Coalition, "ZebraStudies") {
				return true
			}
		}
		return false
	}
	if zebraLead() {
		t.Fatal("ZebraStudies visible before it exists")
	}

	// Beta learns a new coalition matching the topic; its schema version
	// moves, but Alpha's store still holds the old one.
	if err := b.CoDB.DefineCoalition("ZebraStudies", "", "zebra research"); err != nil {
		t.Fatal(err)
	}
	if zebraLead() {
		t.Fatal("a peer's probe was not served from the cache before gossip moved its version")
	}
	misses := a.MDCache.Snapshot().Misses
	for _, n := range []*core.Node{a, b} {
		n.Gossip.Tick(ctx)
	}
	if !zebraLead() {
		t.Fatal("peer churn not visible after a gossip round")
	}
	if st := a.MDCache.Snapshot(); st.Misses <= misses {
		t.Errorf("expected a refetch after version change: %+v", st)
	}
}

// TestPolicySettersRaceWithExecute is the -race regression test for the old
// data race between SetFanOut/SetMemberPolicy and a concurrently running
// Execute (both now go through atomics).
func TestPolicySettersRaceWithExecute(t *testing.T) {
	_, a, _ := twoNodeFixture(t)
	stop := make(chan struct{})
	setterDone := make(chan struct{})
	go func() {
		defer close(setterDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.Processor.SetFanOut(i%4 + 1)
			a.Processor.SetMemberPolicy(i%2+1, time.Duration(i%3)*time.Millisecond+time.Second)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := a.NewSession()
			for j := 0; j < 20; j++ {
				stmt := fmt.Sprintf("Find Coalitions With Information topic%d;", j%5)
				if _, err := s.Execute(context.Background(), stmt); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-setterDone
}

// metadataCalls sums the co-database operations the counter saw, gossip
// exchanges excluded.
func (c *opCounter) metadataCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for op, k := range c.counts {
		if !strings.HasPrefix(op, "gossip_") {
			n += k
		}
	}
	return n
}

// TestDisplayStatementsReadThroughCache pins the browsing statements to the
// metadata cache, over IIOP with one ORB per node (colocation off). S0 and S1
// form coalition C, with sub-coalition CSub; S2 stands outside and enters C
// through a service link to S0's co-database. A repeat of each browsing
// statement, on S0's own co-database and on the one S2 entered through, makes
// no co-database call and says cache=hit in its trace and its span. S0 sees
// S2's Join Coalition on its next Display Instances, with no gossip round. An
// unknown class's error replays for NegTTL, then the statement recovers.
func TestDisplayStatementsReadThroughCache(t *testing.T) {
	f, err := core.NewFederation(orb.Options{DisableColocation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	// S0's negative entries expire on a clock the test moves by hand.
	base := time.Now()
	var skew atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(skew.Load())) }
	nodes := make([]*core.Node, 3)
	for i, p := range []orb.Product{orb.VisiBroker, orb.Orbix, orb.OrbixWeb} {
		cfg := core.NodeConfig{
			Name: fmt.Sprintf("S%d", i), Engine: core.EngineOracle,
			InformationType: "records",
			Schema:          "CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);",
		}
		if i == 0 {
			cfg.Clock = clock
		}
		if i == 1 {
			cfg.Interface = []codb.ExportedType{{Name: "R", Functions: []codb.ExportedFunction{{
				Name: "V", Returns: "int", Table: "r", ResultColumn: "v", ArgColumn: "k"}}}}
		}
		if nodes[i], err = f.AddNode(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.DefineCoalition("C", "", "shared records", "S0", "S1"); err != nil {
		t.Fatal(err)
	}
	if err := f.DefineCoalition("CSub", "C", "some records", "S1"); err != nil {
		t.Fatal(err)
	}
	for _, l := range []core.LinkSpec{
		{Name: "CtoS2", FromKind: "coalition", From: "C", ToKind: "database", To: "S2", InfoType: "records"},
		{Name: "S2toC", FromKind: "database", From: "S2", ToKind: "coalition", To: "C", InfoType: "records"},
	} {
		if err := f.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	counter := countPeerOps(t, nodes[0])
	ctx := context.Background()
	local, peer := nodes[0].NewSession(), nodes[2].NewSession()
	if _, err := peer.Execute(ctx, "Connect To Coalition C;"); err != nil {
		t.Fatal(err)
	}

	tr := trace.New(trace.Options{})
	for _, sess := range []*query.Session{local, peer} {
		for _, stmt := range []string{
			"Display Coalitions;",
			"Display Service Links;",
			"Display SubClasses of Class C;",
			"Display Instances of Class C;",
			"Display Access Information of Instance S1;",
			"Display Interface of Instance S1;",
			"Search Type R;",
		} {
			first, err := sess.Execute(ctx, stmt)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			sess.Trace()
			calls := counter.metadataCalls()
			root, sp := tr.StartSpan(ctx, "test")
			again, err := sess.Execute(root, stmt)
			sp.End(err)
			if err != nil {
				t.Fatalf("%s again: %v", stmt, err)
			}
			if got := counter.metadataCalls() - calls; got != 0 {
				t.Errorf("%s again made %d co-database call(s), want 0", stmt, got)
			}
			if again.Text != first.Text {
				t.Errorf("%s again answered %q, first %q", stmt, again.Text, first.Text)
			}
			for _, ev := range sess.Trace() {
				if ev.Layer == "communication" && !strings.HasSuffix(ev.Msg, " cache=hit") {
					t.Errorf("%s again traced %q, want a cache=hit line", stmt, ev.Msg)
				}
			}
			for _, rec := range tr.Spans() {
				if !strings.HasPrefix(rec.Name, "query:") {
					continue
				}
				if len(rec.Attrs) == 0 {
					t.Errorf("%s again: span %s carries no cache attribute", stmt, rec.Name)
				}
				for _, a := range rec.Attrs {
					if a.Key == "cache" && a.Value != "hit" {
						t.Errorf("%s again: span %s says cache=%s", stmt, rec.Name, a.Value)
					}
				}
			}
			tr.Reset()
		}
	}
	if resp, err := local.Execute(ctx, "Search Type R;"); err != nil || len(resp.Sources) != 1 || resp.Sources[0].Name != "S1" {
		t.Fatalf("Search Type R = %v, %v; want S1", resp, err)
	}

	// A peer's Join writes into S0's co-database and moves its version: S0's
	// next read refetches.
	if _, err := peer.Execute(ctx, "Join Coalition C;"); err != nil {
		t.Fatal(err)
	}
	calls := counter.metadataCalls()
	resp, err := local.Execute(ctx, "Display Instances of Class C;")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(resp.Names, ","); got != "S0,S1,S2" {
		t.Errorf("after S2's join S0 lists %s, want S0,S1,S2", got)
	}
	if got := counter.metadataCalls() - calls; got != 1 {
		t.Errorf("the read after a join made %d co-database call(s), want 1", got)
	}
	local.Trace()

	// An error is a negative entry: replayed until NegTTL has passed, even
	// though the class now exists, then refetched.
	const nope = "Display Instances of Class Nope;"
	if _, err := local.Execute(ctx, nope); err == nil {
		t.Fatal("instances of an unknown class answered")
	}
	if err := nodes[0].CoDB.DefineCoalition("Nope", "", "late"); err != nil {
		t.Fatal(err)
	}
	local.Trace()
	calls = counter.metadataCalls()
	if _, err := local.Execute(ctx, nope); err == nil {
		t.Fatal("the error was not replayed within NegTTL")
	}
	if got := counter.metadataCalls() - calls; got != 0 {
		t.Errorf("the replayed error made %d co-database call(s), want 0", got)
	}
	if tr := local.Trace(); len(tr) == 0 || !strings.HasSuffix(tr[len(tr)-1].Msg, " cache=neghit") {
		t.Errorf("replayed error traced %v, want a cache=neghit line", tr)
	}
	skew.Store(int64(mdcache.NegTTL + time.Millisecond))
	if resp, err := local.Execute(ctx, nope); err != nil || !strings.Contains(resp.Text, "no instances") {
		t.Errorf("after NegTTL: %v, %v; want the empty class", resp, err)
	}
}
