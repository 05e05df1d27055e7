package query_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/simnet"
)

// The fault acceptance suite lives in fault_sim_test.go, running over the
// deterministic in-memory transport (internal/simnet). This file keeps one
// socket-based smoke copy of the degraded-federation scenario so the fault
// path is still exercised against the real TCP stack.

// chaosFed is a hand-rolled federation for fault-injection tests. Unlike
// core.Federation (three shared ORBs), every member runs on its own ORB so
// each has a distinct IIOP address that fault rules can target individually.
type chaosFed struct {
	home    *core.Node
	faults  *simnet.FaultTransport // the home ORB's transport
	members []*core.Node
	addrs   []string // addrs[i] is the IIOP address of member i
}

// buildChaosFed boots a home node (on an ORB built from clientOpts, which
// carries the retry/timeout policy under test, dialling through a fault
// injector over TCP with no plan installed yet) and n coalition
// members, each on its own ORB. All members export function V over table r,
// and each holds one distinguishing row ('a', i).
func buildChaosFed(t *testing.T, n int, clientOpts orb.Options) *chaosFed {
	t.Helper()
	clientOpts.Product = orb.VisiBroker
	// Colocation is process-wide (keyed by address), so without this the
	// home node would short-circuit member calls in-process and bypass the
	// fault transport entirely.
	clientOpts.DisableColocation = true
	faults := simnet.NewFaultTransport(orb.TCP{}, nil)
	clientOpts.Transport = faults
	homeORB := orb.New(clientOpts)
	if err := homeORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(homeORB.Shutdown)
	home, err := core.NewNode(core.NodeConfig{
		Name: "Home", Engine: core.EngineOracle, ORB: homeORB,
		InformationType: "home records",
		Schema:          "CREATE TABLE h (x INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.CoDB.DefineCoalition("Records", "", "chaos coalition"); err != nil {
		t.Fatal(err)
	}
	fed := &chaosFed{home: home, faults: faults}
	for i := 0; i < n; i++ {
		mo := orb.New(orb.Options{Product: orb.Orbix})
		if err := mo.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mo.Shutdown)
		m, err := core.NewNode(core.NodeConfig{
			Name: fmt.Sprintf("M%d", i), Engine: core.EngineOracle, ORB: mo,
			InformationType: "records",
			Schema: fmt.Sprintf(`CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);
				INSERT INTO r VALUES ('a', %d);`, i),
			Interface: []codb.ExportedType{{
				Name: "R",
				Functions: []codb.ExportedFunction{{
					Name: "V", Returns: "int",
					Table: "r", ResultColumn: "v", ArgColumn: "k",
				}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := home.CoDB.AddMember("Records", m.Descriptor); err != nil {
			t.Fatal(err)
		}
		fed.members = append(fed.members, m)
		fed.addrs = append(fed.addrs, mo.Addr())
	}
	return fed
}

const chaosQuery = `V(R.K, (R.K = "a")) On Coalition Records;`

// TestChaosDegradedFederationQuery is the acceptance scenario: one
// unreachable member plus one pathologically slow member out of four. The
// query must come back within the configured deadline with Partial set,
// a status for every member, and rows from every healthy member.
func TestChaosDegradedFederationQuery(t *testing.T) {
	fed := buildChaosFed(t, 4, orb.Options{
		RetryAttempts: 2,
	})
	fed.faults.SetPlan(&simnet.FaultPlan{Rules: []simnet.FaultRule{
		{Addr: fed.addrs[0], FailConnect: 1},  // unreachable
		{Addr: fed.addrs[1], LatencyMS: 5000}, // pathologically slow
	}})
	fed.home.Processor.SetMemberPolicy(1, 250*time.Millisecond)
	s := fed.home.NewSession()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := s.Execute(ctx, chaosQuery)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("degraded query took %v, want well under the 3s deadline", elapsed)
	}
	if !resp.Partial {
		t.Error("Partial = false")
	}
	if len(resp.Members) != 4 {
		t.Fatalf("member statuses = %d, want 4", len(resp.Members))
	}
	classes := map[string]string{}
	for _, m := range resp.Members {
		classes[m.Member] = m.ErrClass
	}
	if classes["M0"] != "comm" {
		t.Errorf("unreachable M0 class = %q, want comm", classes["M0"])
	}
	if classes["M1"] != "timeout" {
		t.Errorf("slow M1 class = %q, want timeout", classes["M1"])
	}
	if classes["M2"] != "" || classes["M3"] != "" {
		t.Errorf("healthy members failed: M2=%q M3=%q", classes["M2"], classes["M3"])
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("merged rows = %d, want 2 (one per healthy member)", len(resp.Result.Rows))
	}
	// The survivors' rows carry their source column.
	sources := map[string]bool{}
	for _, row := range resp.Result.Rows {
		sources[row[0].Str] = true
	}
	if !sources["M2"] || !sources["M3"] {
		t.Errorf("rows missing a healthy member: %v", sources)
	}
}
