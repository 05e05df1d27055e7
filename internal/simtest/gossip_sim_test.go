package simtest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/orb"
)

// log2Ceil is ⌈log2 n⌉ — the yardstick the convergence bounds are phrased
// in, since push-pull anti-entropy spreads a new version epidemically.
func log2Ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// storesHave reports whether every node's gossip store holds `node` at
// exactly version `want`.
func storesHave(f *Fed, node string, want uint64) bool {
	for _, n := range f.Nodes {
		e, ok := n.Core.Gossip.Store().Get(node)
		if !ok || e.Version != want {
			return false
		}
	}
	return true
}

// TestGossipConvergence300 is the scale acceptance scenario: a 300-node
// federation whose topology is a connected chain of 8-member coalitions (no
// backbone coalition, so no store starts with global knowledge), driven by
// the anti-entropy agents alone. Cold-start membership must converge within
// O(log N) gossip rounds; a single metadata mutation must then reach all 300
// stores within O(log N) rounds at a message cost strictly below the flat
// fan-out baseline of N·(N-1) notifications; and the version-monotonicity
// invariant must hold after every round. The -simnet.seed flag replays the
// run deterministically.
func TestGossipConvergence300(t *testing.T) {
	const nodes = 300
	seed := int64(300)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	fed, err := Build(Config{
		Seed:            seed,
		Nodes:           nodes,
		CoalitionSize:   8,
		NoBaseCoalition: true,
		// One multiplexed connection per endpoint: 300 ORBs each gossiping
		// with dozens of peers would otherwise pool thousands of idle
		// simulated connections.
		ORB: orb.Options{MaxIdlePerHost: 1},
	})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, ReplayLine(seed))
	}
	defer fed.Close()
	ctx := context.Background()
	mono := newGossipMonotonicity(fed)
	logN := log2Ceil(nodes) // 9

	// Phase 1 — cold start. Every store begins knowing only its coalition
	// co-members; full membership must be epidemic, not configured.
	warmBound := 4 * logN
	warm := 0
	for ; warm < warmBound && !fed.GossipConverged(); warm++ {
		fed.RunGossipRound(ctx)
		if v := mono.Check(); v != "" {
			t.Fatalf("round %d: %s\n%s", warm, v, ReplayLine(seed))
		}
	}
	if !fed.GossipConverged() {
		t.Fatalf("cold-start membership not converged after %d rounds\n%s", warmBound, ReplayLine(seed))
	}

	// Phase 2 — one metadata mutation at node 0 (a new coalition definition
	// bumps its co-database version). The new version must reach every store
	// in O(log N) rounds, spending strictly fewer messages than the flat
	// baseline in which node 0 notifies all N-1 peers and every peer
	// re-probes everyone (N·(N-1) messages).
	msgsBase := fed.GossipMessages()
	if err := fed.Nodes[0].Core.CoDB.DefineCoalition("cmutation", "", ""); err != nil {
		t.Fatal(err)
	}
	want := fed.Nodes[0].Core.CoDB.Version()
	mutBound := 2 * logN
	rounds := 0
	for !storesHave(fed, fed.Nodes[0].Name, want) {
		if rounds >= mutBound {
			t.Fatalf("mutation not converged within O(log N) = %d rounds\n%s", mutBound, ReplayLine(seed))
		}
		fed.RunGossipRound(ctx)
		rounds++
		if v := mono.Check(); v != "" {
			t.Fatalf("mutation round %d: %s\n%s", rounds, v, ReplayLine(seed))
		}
	}
	msgs := fed.GossipMessages() - msgsBase
	flatBaseline := int64(nodes * (nodes - 1))
	if msgs >= flatBaseline {
		t.Fatalf("dissemination spent %d messages, flat fan-out baseline is %d\n%s",
			msgs, flatBaseline, ReplayLine(seed))
	}
	t.Logf("300 nodes: cold start %d rounds (%d msgs), mutation %d rounds (bound %d), %d msgs vs flat %d",
		warm, msgsBase, rounds, mutBound, msgs, flatBaseline)

	// Phase 3 — discovery at scale: a sweep from node 0 probes each of its
	// coalition co-members directly, exactly once (a co-member of two of
	// node 0's coalitions is still one probe), and every probe answers.
	resp, err := fed.Nodes[0].Session.Execute(ctx, "Find Coalitions With Information zzzscale;")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("healthy sweep flagged partial: %+v\n%s", resp.Members, ReplayLine(seed))
	}
	home := fed.Nodes[0].Core.CoDB
	coMembers := map[string]bool{}
	for _, c := range home.MemberOf() {
		members, err := home.Members(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			if m.Name != fed.Nodes[0].Name {
				coMembers[m.Name] = true
			}
		}
	}
	probed := map[string]int{}
	for _, m := range resp.Members {
		probed[m.Member]++
	}
	if len(coMembers) == 0 || len(resp.Members) != len(coMembers) {
		t.Fatalf("sweep probed %d member(s) %v, node 0 has %d co-member(s)\n%s",
			len(resp.Members), probed, len(coMembers), ReplayLine(seed))
	}
	for name := range coMembers {
		if probed[name] != 1 {
			t.Fatalf("co-member %s probed %d time(s)\n%s", name, probed[name], ReplayLine(seed))
		}
	}
	t.Logf("sweep from %s: %d coalition(s), %d co-member(s) probed once each",
		fed.Nodes[0].Name, len(home.MemberOf()), len(coMembers))
}

// gossipTrace runs a 48-node windowed federation for a fixed number of
// rounds and renders every agent's counters plus every store's final digest
// into a normalized line trace.
func gossipTrace(t *testing.T, seed int64) []string {
	t.Helper()
	fed, err := Build(Config{
		Seed:            seed,
		Nodes:           48,
		CoalitionSize:   6,
		NoBaseCoalition: true,
		ORB:             orb.Options{MaxIdlePerHost: 1},
	})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, ReplayLine(seed))
	}
	defer fed.Close()
	ctx := context.Background()
	var lines []string
	for r := 0; r < 12; r++ {
		fed.RunGossipRound(ctx)
		for _, n := range fed.Nodes {
			s := n.Core.Gossip.Stats()
			lines = append(lines, fmt.Sprintf("round=%d node=%s exchanges=%d pushes=%d applied=%d known=%d",
				r, n.Name, s.Exchanges, s.Pushes, s.DeltasApplied, s.PeersKnown))
		}
	}
	for _, n := range fed.Nodes {
		dig := n.Core.Gossip.Store().Digest()
		names := make([]string, 0, len(dig))
		for name := range dig {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "digest node=%s", n.Name)
		for _, name := range names {
			fmt.Fprintf(&b, " %s@%d", name, dig[name])
		}
		lines = append(lines, b.String())
	}
	return lines
}

// TestGossipDeterministicReplay runs the same seed twice and requires the
// two gossip traces — every agent's per-round counters and every store's
// final digest — to match line for line: same exchanges, same deltas, same
// final state. This is what makes the 300-node scenario's -simnet.seed
// replay line trustworthy.
func TestGossipDeterministicReplay(t *testing.T) {
	seed := int64(7)
	if s := ReplaySeed(); s != 0 {
		seed = s
	}
	first := gossipTrace(t, seed)
	second := gossipTrace(t, seed)
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d\n%s", len(first), len(second), ReplayLine(seed))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at line %d:\n  run1: %s\n  run2: %s\n%s",
				i, first[i], second[i], ReplayLine(seed))
		}
	}
}
