package query_test

import (
	"context"
	"testing"
)

// TestHierarchicalDiscoveryEquivalence builds the planner fixture twice and
// sweeps an unknown topic once with hierarchical routing (shard size 2: the
// four peers relay through two representatives) and once flat. The member
// accounting must be identical, and the planner stats must prove the
// hierarchical run actually relayed while the flat run never did.
func TestHierarchicalDiscoveryEquivalence(t *testing.T) {
	_, hier := planFederation(t, 5, nil)
	_, flat := planFederation(t, 5, nil)
	hier[0].Processor.SetSubCoalitionSize(2)
	flat[0].Processor.SetSubCoalitionSize(-1)
	ctx := context.Background()

	rh, err := hier[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	rf, err := flat[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rh.Members) != 4 || len(rf.Members) != 4 {
		t.Fatalf("sweeps probed %d / %d members, want 4", len(rh.Members), len(rf.Members))
	}
	for i := range rh.Members {
		h, f := rh.Members[i], rf.Members[i]
		if h.Member != f.Member || h.ErrClass != f.ErrClass {
			t.Fatalf("member %d diverges: hier %+v flat %+v", i, h, f)
		}
	}
	if rh.Partial != rf.Partial || len(rh.Leads) != len(rf.Leads) {
		t.Fatalf("verdicts diverge: hier partial=%v leads=%d, flat partial=%v leads=%d",
			rh.Partial, len(rh.Leads), rf.Partial, len(rf.Leads))
	}
	sh := hier[0].Processor.PlannerStats()
	if sh.RelayShards != 2 || sh.RelayedProbes != 4 || sh.RelayFailovers != 0 {
		t.Fatalf("hierarchical stats: %+v", sh)
	}
	if sf := flat[0].Processor.PlannerStats(); sf.RelayShards != 0 || sf.RelayedProbes != 0 {
		t.Fatalf("flat run relayed: %+v", sf)
	}
}

// TestHierarchicalRelayFailover closes the first shard's representative:
// the relay must fail over to the next shard member in-line, the dead node
// must be accounted like any failed member, and every other member must
// still be probed exactly once.
func TestHierarchicalRelayFailover(t *testing.T) {
	_, nodes := planFederation(t, 5, nil)
	nodes[0].Processor.SetSubCoalitionSize(2)
	ctx := context.Background()

	// S1 is the first member of shard [S1 S2] — the elected representative
	// while the failure detector has nothing against it.
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := nodes[0].NewSession().Execute(ctx, "Find Coalitions With Information nothinganyoneknows;")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatalf("sweep with a dead member not partial: %+v", resp.Members)
	}
	healthy := 0
	for _, m := range resp.Members {
		switch m.Member {
		case "S1":
			if m.ErrClass == "" {
				t.Fatalf("dead member answered: %+v", m)
			}
		default:
			if m.ErrClass != "" {
				t.Fatalf("healthy member failed: %+v", m)
			}
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("%d healthy members, want 3: %+v", healthy, resp.Members)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.RelayShards != 2 || st.RelayFailovers == 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}
}
