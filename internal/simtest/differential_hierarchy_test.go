package simtest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/query"
)

// The differential hierarchy suite: the same heterogeneous federation is
// built twice from the same seed — once with hierarchical discovery routing
// on (shard size 1, the most aggressive setting: every coalition group with
// two or more peers relays through representatives, whatever subset of
// coalitions the seed dealt the coordinator), once with it disabled (the
// paper's flat fan-out) — and
// both run an identical workload. Routing may only change who carries the
// probe RPCs, never the answer: rows, columns, Partial flag, per-member
// error classes and staleness, discovery leads and instance listings must
// match exactly, across the seed matrix, coalition queries, peer sweeps, a
// fully-partitioned member (which in the hierarchical half is also a dead
// shard representative) and the healed federation afterwards.

// hierFindWorkload is the discovery side of the workload: peer sweeps that
// drive stage-3 routing (distinct unknown topics dodge the probe cache, so
// every sweep exercises routing afresh) plus lookups flat stages answer.
var hierFindWorkload = []string{
	"Find Coalitions With Information zzzsweep1;",
	"Find Coalitions With Information zzzsweep2;",
	"Find Coalitions With Information c0;",
	"Display Instances of Class " + BaseCoalition + ";",
}

// buildHierFed builds one half of a routing differential pair.
func buildHierFed(t *testing.T, seed int64, sub int) *Fed {
	t.Helper()
	return buildModeFed(t, seed, func(p *query.Processor) { p.SetSubCoalitionSize(sub) })
}

// TestDifferentialHierarchy runs the PR-7 pushdown workload plus the
// discovery sweeps over the seed matrix, healthy and with a fully
// partitioned member, and requires identical outcomes from hierarchical and
// flat routing — while proving the hierarchical half actually relayed
// (RelayShards > 0) and the flat half never did.
func TestDifferentialHierarchy(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			hier := buildHierFed(t, seed, 1)
			defer hier.Close()
			flat := buildHierFed(t, seed, -1)
			defer flat.Close()
			ctx := context.Background()
			// Two gossip rounds warm both failure detectors and stores, so
			// representative election runs on real liveness data.
			for r := 0; r < 2; r++ {
				hier.RunGossipRound(ctx)
				flat.RunGossipRound(ctx)
			}

			runBoth := func(stmt string) *query.Response {
				t.Helper()
				rh, err := hier.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("hierarchical %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				rf, err := flat.Nodes[0].Session.Execute(ctx, stmt)
				if err != nil {
					t.Fatalf("flat %q: %v\n%s", stmt, err, ReplayLine(seed))
				}
				if a, b := hierOutcomeOf(rh), hierOutcomeOf(rf); a != b {
					t.Fatalf("routing modes diverge on %q:\n  hier: %s\n  flat: %s\n%s",
						stmt, a, b, ReplayLine(seed))
				}
				return rh
			}

			for _, stmt := range diffWorkload {
				runBoth(stmt)
			}
			for _, stmt := range hierFindWorkload {
				runBoth(stmt)
			}

			// A fully partitioned member: unreachable from the coordinator
			// and from every would-be representative alike, so both modes
			// must report the same degraded accounting. In the hierarchical
			// half this also kills whatever shard representative N2 was.
			for j := 0; j < len(hier.Nodes); j++ {
				if j != 2 {
					hier.Partition(2, j)
					flat.Partition(2, j)
				}
			}
			rh := runBoth("Find Coalitions With Information zzzdead;")
			found := false
			for _, m := range rh.Members {
				if m.Member == "N2" && m.ErrClass == "comm" {
					found = true
				}
			}
			if !found || !rh.Partial {
				t.Fatalf("partitioned member not accounted: partial=%v members=%+v\n%s",
					rh.Partial, rh.Members, ReplayLine(seed))
			}
			runBoth(diffWorkload[0])

			hier.HealAll()
			flat.HealAll()
			if rh := runBoth("Find Coalitions With Information zzzhealed;"); rh.Partial {
				t.Fatalf("healed sweep still partial: %+v\n%s", rh.Members, ReplayLine(seed))
			}

			// The equivalence must not be vacuous: the hierarchical half
			// relayed real shards, the flat half relayed nothing.
			sh := hier.Nodes[0].Core.Processor.PlannerStats()
			sf := flat.Nodes[0].Core.Processor.PlannerStats()
			if sh.RelayShards == 0 || sh.RelayedProbes == 0 {
				t.Fatalf("hierarchical mode never relayed: %+v\n%s", sh, ReplayLine(seed))
			}
			if sf.RelayShards != 0 || sf.RelayedProbes != 0 {
				t.Fatalf("flat mode relayed %d shards: %+v\n%s", sf.RelayShards, sf, ReplayLine(seed))
			}
		})
	}
}
