package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/orb"
)

// gossipFederation builds a two-node federation for the wiring tests: GA
// and GB share a coalition, so each seeds the other from its member lists.
func gossipFederation(t *testing.T) (*Federation, *Node, *Node) {
	t.Helper()
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	for i, name := range []string{"GA", "GB"} {
		cfg := NodeConfig{
			Name:            name,
			Engine:          EngineOracle,
			InformationType: "testing",
			Schema:          "CREATE TABLE t (a INT);",
			GossipSeed:      int64(i + 1),
			GossipInterval:  time.Millisecond,
		}
		if _, err := f.AddNode(orb.Orbix, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.DefineCoalition("Med", "", "medical", "GA", "GB"); err != nil {
		t.Fatal(err)
	}
	a, _ := f.Node("GA")
	b, _ := f.Node("GB")
	return f, a, b
}

// TestNodeGossipWiring drives the production gossip hooks end to end: the
// agents exchange over real IIOP connections through the co-database
// servants, seed knowledge comes from the coalition member lists, applied
// entries reach the metadata cache through the OnApply hook.
func TestNodeGossipWiring(t *testing.T) {
	_, a, b := gossipFederation(t)
	// Bootstrap knowledge: the coalition member list names the peer before
	// any exchange has happened.
	seeds := a.gossipSeeds()
	if len(seeds) != 1 || seeds[0].Node != "GB" || seeds[0].Version != 0 || seeds[0].CoDBRef == "" {
		t.Fatalf("GA seeds = %+v", seeds)
	}
	self := a.gossipSelf()
	if self.Node != "GA" || self.Version != a.CoDB.Version() || self.CoDBRef == "" ||
		len(self.Coalitions) != 1 || self.Coalitions[0] != "Med" {
		t.Fatalf("GA self entry = %+v", self)
	}

	ctx := context.Background()
	converged := func() bool {
		ea, oka := a.Gossip.Store().Get("GB")
		eb, okb := b.Gossip.Store().Get("GA")
		return oka && okb && ea.Version == b.CoDB.Version() && eb.Version == a.CoDB.Version()
	}
	for r := 0; r < 8 && !converged(); r++ {
		a.Gossip.Tick(ctx)
		b.Gossip.Tick(ctx)
	}
	if !converged() {
		t.Fatalf("no convergence: GA store %+v", a.Gossip.Store().Digest())
	}
	if a.Gossip.Messages() == 0 {
		t.Fatal("convergence without messages")
	}
	// Gossip is the node's own traffic: the ORB counts it apart from the
	// calls statements make, every message of both agents and nothing else.
	st := a.Config.ORB.Stats.Snapshot()
	if want := a.Gossip.Messages() + b.Gossip.Messages(); st.HousekeepingCalls != want {
		t.Errorf("ORB counted %d housekeeping calls, the agents sent %d messages", st.HousekeepingCalls, want)
	}
	// The OnApply hook must have pushed GB's applied entry into GA's
	// metadata cache under its gossip version stamp.
	if _, ver, ok := a.MDCache.PeekVersioned("gossip|GB"); !ok || ver != b.CoDB.Version() {
		t.Fatalf("gossip|GB cache stamp = v%d ok=%v, want v%d", ver, ok, b.CoDB.Version())
	}
}

// TestStartGossipLoop runs the background anti-entropy loop itself: with a
// millisecond interval the loop must produce exchanges on its own, and
// cancelling the context must stop it.
func TestStartGossipLoop(t *testing.T) {
	_, a, _ := gossipFederation(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.StartGossip(ctx)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Gossip.Messages() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("StartGossip did not stop on context cancel")
	}
	if a.Gossip.Messages() == 0 {
		t.Fatal("background loop never gossiped")
	}
}
