package simtest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/orb"
	"repro/internal/query"
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

	// Phase 3 — the representative tier at scale: with an 8-member coalition
	// and a shard size of 4, a discovery sweep from node 0 must route through
	// shard representatives rather than probing each peer directly.
	fed.Nodes[0].Core.Processor.SetSubCoalitionSize(4)
	resp, err := fed.Nodes[0].Session.Execute(ctx, "Find Coalitions With Information zzzscale;")
	if err != nil {
		t.Fatal(err)
	}
	st := fed.Nodes[0].Core.Processor.PlannerStats()
	if st.RelayShards == 0 {
		t.Fatalf("scale sweep never sharded: %+v\n%s", st, ReplayLine(seed))
	}
	if resp.Partial {
		t.Fatalf("healthy relayed sweep flagged partial: %+v\n%s", resp.Members, ReplayLine(seed))
	}
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

// hierOutcomeOf projects everything the two routing modes must agree on:
// rows, columns, Partial, per-member error class and staleness, discovery
// leads (minus fed-specific object references) and instance listings.
func hierOutcomeOf(resp *query.Response) string {
	var o diffOutcome
	if resp.Result != nil {
		o = outcomeOf(resp)
	}
	var members []string
	for _, m := range resp.Members {
		members = append(members, fmt.Sprintf("%s:%s:%v", m.Member, m.ErrClass, m.Stale))
	}
	var leads []string
	for _, l := range resp.Leads {
		leads = append(leads, fmt.Sprintf("%s:%.3f:%s", l.Coalition, l.Score, l.Via))
	}
	return fmt.Sprintf("rows=%q cols=%q partial=%v members=[%s] leads=[%s] names=%v",
		o.rows, o.columns, resp.Partial, strings.Join(members, " "), strings.Join(leads, " "), resp.Names)
}

// deadEverywhere reports whether every surviving node's failure detector has
// marked `name` dead.
func deadEverywhere(f *Fed, skip int, name string) bool {
	for _, n := range f.Nodes {
		if n.Idx == skip {
			continue
		}
		if n.Core.Gossip.Store().Alive(name) {
			return false
		}
	}
	return true
}

// TestGossipRepresentativeReelection proves representative liveness end to
// end on a deterministic single-coalition federation: six nodes in one
// coalition, shard size two, so a discovery sweep from node 0 shards its
// five peers into [N1 N2] [N3 N4] [N5] with N1 the first shard's elected
// representative. Fully partitioning N1 must (a) fail over in-line to N2
// with the answer still identical to flat routing, (b) be detected by every
// surviving node within (SuspectAfter+1) shuffled-ring cycles of virtual
// time, and (c) after detection, re-elect N2 without wasting a relay attempt
// on the dead node. Healing reverses it.
func TestGossipRepresentativeReelection(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			build := func(sub int) *Fed {
				fed, err := Build(Config{
					Seed:            seed,
					Nodes:           6,
					CoalitionSize:   6, // one coalition spanning everyone
					NoBaseCoalition: true,
				})
				if err != nil {
					t.Fatalf("build (sub=%d): %v\n%s", sub, err, ReplayLine(seed))
				}
				fed.eachProcessor(func(p *query.Processor) { p.SetSubCoalitionSize(sub) })
				return fed
			}
			hier := build(2)
			defer hier.Close()
			flat := build(-1)
			defer flat.Close()
			ctx := context.Background()
			for r := 0; r < 2; r++ {
				hier.RunGossipRound(ctx)
				flat.RunGossipRound(ctx)
			}

			runBoth := func(topic string) *query.Response {
				t.Helper()
				stmt := "Find Coalitions With Information " + topic + ";"
				rh, err := hier.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("hier %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				rf, err := flat.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("flat %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := hierOutcomeOf(rh), hierOutcomeOf(rf); a != b {
					t.Fatalf("routing modes diverge on %q:\n  hier: %s\n  flat: %s\n%s",
						topic, a, b, ReplayLine(seed))
				}
				return rh
			}

			// Healthy baseline: three shards, no failovers, and the flat twin
			// must not have relayed anything (non-vacuousness).
			runBoth("zzzhealthy")
			s0 := hier.Nodes[0].Core.Processor.PlannerStats()
			if s0.RelayShards != 3 || s0.RelayedProbes != 5 {
				t.Fatalf("healthy sweep: want 3 shards / 5 relayed probes, got %+v\n%s", s0, ReplayLine(seed))
			}
			if s0.RelayFailovers != 0 || s0.RelayDirectFallbacks != 0 {
				t.Fatalf("healthy sweep recorded failures: %+v\n%s", s0, ReplayLine(seed))
			}
			if fs := flat.Nodes[0].Core.Processor.PlannerStats(); fs.RelayShards != 0 {
				t.Fatalf("flat-mode twin relayed %d shards\n%s", fs.RelayShards, ReplayLine(seed))
			}

			// Kill the first shard's representative everywhere (a full
			// partition, so both routing modes see the same dead node).
			for j := 0; j < len(hier.Nodes); j++ {
				if j != 1 {
					hier.Partition(1, j)
					flat.Partition(1, j)
				}
			}

			// Before detection the coordinator still believes N1 is alive and
			// elects it; the relay must fail over to N2 in-line, and N1 is
			// reported unreachable exactly as flat routing reports it.
			rh := runBoth("zzzfailover")
			s1 := hier.Nodes[0].Core.Processor.PlannerStats()
			if s1.RelayFailovers == 0 {
				t.Fatalf("dead representative produced no failover: %+v\n%s", s1, ReplayLine(seed))
			}
			var n1 *query.MemberStatus
			for i := range rh.Members {
				if rh.Members[i].Member == "N1" {
					n1 = &rh.Members[i]
				}
			}
			if n1 == nil || n1.ErrClass != "comm" || !rh.Partial {
				t.Fatalf("partitioned member not accounted: partial=%v members=%+v\n%s",
					rh.Partial, rh.Members, ReplayLine(seed))
			}

			// Detection: every surviving node walks its peer ring once per
			// cycle, so SuspectAfter consecutive failed contacts take at most
			// (SuspectAfter+1) cycles of rounds.
			bound := 0
			for _, n := range hier.Nodes {
				if n.Idx == 1 {
					continue
				}
				if b := (gossip.SuspectAfter + 1) * n.Core.Gossip.CycleLen(); b > bound {
					bound = b
				}
			}
			rounds := 0
			for !deadEverywhere(hier, 1, "N1") {
				if rounds >= bound {
					t.Fatalf("N1 not marked dead within %d virtual rounds\n%s", bound, ReplayLine(seed))
				}
				hier.RunGossipRound(ctx)
				flat.RunGossipRound(ctx)
				rounds++
			}

			// Re-election: the first live shard member is now N2, so the next
			// sweep must not waste a relay attempt on the demoted node.
			runBoth("zzzreelected")
			s2 := hier.Nodes[0].Core.Processor.PlannerStats()
			if s2.RelayFailovers != s1.RelayFailovers {
				t.Fatalf("demoted representative was still tried: failovers %d -> %d\n%s",
					s1.RelayFailovers, s2.RelayFailovers, ReplayLine(seed))
			}
			if s2.RelayShards <= s1.RelayShards {
				t.Fatalf("re-elected sweep relayed nothing: %+v\n%s", s2, ReplayLine(seed))
			}

			// Healing: successful exchanges must resurrect N1 in the detector
			// within one ring cycle, and the answer returns to non-partial.
			hier.HealAll()
			flat.HealAll()
			for r := 0; r < bound && deadEverywhere(hier, 1, "N1"); r++ {
				hier.RunGossipRound(ctx)
				flat.RunGossipRound(ctx)
			}
			if deadEverywhere(hier, 1, "N1") {
				t.Fatalf("healed node never resurrected in the detector\n%s", ReplayLine(seed))
			}
			if rh := runBoth("zzzhealed"); rh.Partial {
				t.Fatalf("healed sweep still partial: %+v\n%s", rh.Members, ReplayLine(seed))
			}
		})
	}
}
