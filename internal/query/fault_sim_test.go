package query_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/simnet"
)

// This file is the fault suite ported onto the deterministic in-memory
// transport (internal/simnet): dead members become host partitions, slow
// members become blackholed links, and injected latency becomes virtual
// time. fault_test.go keeps one socket-based smoke copy of the acceptance
// scenario so the degradation path still runs against real TCP.

// simChaosFed mirrors chaosFed over simnet: home and every member on their
// own ORB and simulated host, so links can be cut per member.
type simChaosFed struct {
	net     *simnet.Net
	home    *core.Node
	homeORB *orb.ORB
	members []*core.Node
	addrs   []string // addrs[i] is the simulated IIOP address of member i
	hosts   []string // hosts[i] is the simulated host of member i
	hostOf  string   // the home node's simulated host
}

func buildSimChaosFed(t *testing.T, n int, clientOpts orb.Options) *simChaosFed {
	t.Helper()
	snet := simnet.New(1)
	t.Cleanup(func() { snet.Close() })
	homeEP := snet.Endpoint("home")
	clientOpts.Product = orb.VisiBroker
	clientOpts.Transport = homeEP
	clientOpts.DisableColocation = true
	homeORB := orb.New(clientOpts)
	if err := homeORB.Listen(":0"); err != nil {
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
	fed := &simChaosFed{net: snet, home: home, homeORB: homeORB, hostOf: homeEP.Host()}
	for i := 0; i < n; i++ {
		ep := snet.Endpoint(fmt.Sprintf("m%d", i))
		mo := orb.New(orb.Options{Product: orb.Orbix, Transport: ep, DisableColocation: true})
		if err := mo.Listen(":0"); err != nil {
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
		fed.hosts = append(fed.hosts, ep.Host())
	}
	return fed
}

// kill partitions the home node away from member i: dials are refused and
// live connections reset, the simulated analogue of FailConnect.
func (f *simChaosFed) kill(i int) { f.net.Partition(f.hostOf, f.hosts[i]) }

// stall blackholes the link to member i: requests are swallowed without an
// answer, so only the caller's deadline ends the wait — the simulated
// analogue of a pathologically slow member.
func (f *simChaosFed) stall(i int) { f.net.Blackhole(f.hostOf, f.hosts[i]) }

// TestSimChaosPartialResultDeadMember: one of three members is partitioned
// away; the coalition query degrades instead of aborting — rows from both
// survivors, a status row for every member, Partial set.
func TestSimChaosPartialResultDeadMember(t *testing.T) {
	fed := buildSimChaosFed(t, 3, orb.Options{
		Retry: orb.RetryPolicy{MaxAttempts: 2},
	})
	fed.kill(1)
	s := fed.home.NewSession()
	resp, err := s.Execute(context.Background(), chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Error("Partial = false with a dead member")
	}
	if len(resp.Members) != 3 {
		t.Fatalf("member statuses = %d, want 3", len(resp.Members))
	}
	ok := 0
	for _, m := range resp.Members {
		switch m.Member {
		case "M1":
			if m.OK() {
				t.Errorf("dead member M1 reported OK")
			}
			if m.ErrClass != "comm" {
				t.Errorf("M1 ErrClass = %q, want comm (%s)", m.ErrClass, m.Err)
			}
			if m.Attempts != 2 {
				t.Errorf("M1 attempts = %d, want 2 (retry)", m.Attempts)
			}
		default:
			if !m.OK() {
				t.Errorf("healthy member %s failed: %s", m.Member, m.Err)
			}
			ok++
		}
	}
	if ok != 2 {
		t.Errorf("healthy members = %d, want 2", ok)
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("merged rows = %d, want 2 (one per survivor)", len(resp.Result.Rows))
	}
	if !strings.Contains(resp.Text, "partial result: 2 of 3 member(s) answered") {
		t.Errorf("text missing partial marker:\n%s", resp.Text)
	}
}

// TestSimChaosSlowMemberBoundedByMemberTimeout: a blackholed member never
// answers; MemberTimeout bounds the whole statement, reporting the silent
// member as timed out while the fast ones answer.
func TestSimChaosSlowMemberBoundedByMemberTimeout(t *testing.T) {
	fed := buildSimChaosFed(t, 3, orb.Options{})
	fed.stall(2)
	fed.home.Processor.SetMemberPolicy(1, 200*time.Millisecond)
	s := fed.home.NewSession()
	start := time.Now()
	resp, err := s.Execute(context.Background(), chaosQuery)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("statement took %v; MemberTimeout did not bound the silent member", elapsed)
	}
	if !resp.Partial {
		t.Error("Partial = false with a timed-out member")
	}
	for _, m := range resp.Members {
		if m.Member == "M2" {
			if m.ErrClass != "timeout" {
				t.Errorf("M2 ErrClass = %q, want timeout (%s)", m.ErrClass, m.Err)
			}
		} else if !m.OK() {
			t.Errorf("fast member %s failed: %s", m.Member, m.Err)
		}
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("merged rows = %d, want 2", len(resp.Result.Rows))
	}
}

// TestSimChaosQuorumFailure: MinMembers above the surviving count fails the
// statement with the quorum diagnostics.
func TestSimChaosQuorumFailure(t *testing.T) {
	fed := buildSimChaosFed(t, 3, orb.Options{})
	fed.kill(0)
	fed.home.Processor.SetMemberPolicy(3, 0)
	s := fed.home.NewSession()
	_, err := s.Execute(context.Background(), chaosQuery)
	if err == nil {
		t.Fatal("quorum 3 with a dead member succeeded")
	}
	if !strings.Contains(err.Error(), "2 of 3 member(s) answered, need 3") {
		t.Errorf("quorum error = %v", err)
	}
}

// TestSimChaosDegradedFederationQuery: one partitioned member plus one
// blackholed member out of four. The query comes back within the deadline
// with Partial set, a status for every member, rows from the healthy pair.
func TestSimChaosDegradedFederationQuery(t *testing.T) {
	fed := buildSimChaosFed(t, 4, orb.Options{
		Retry: orb.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond},
	})
	fed.kill(0)
	fed.stall(1)
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
		t.Errorf("silent M1 class = %q, want timeout", classes["M1"])
	}
	if classes["M2"] != "" || classes["M3"] != "" {
		t.Errorf("healthy members failed: M2=%q M3=%q", classes["M2"], classes["M3"])
	}
	if len(resp.Result.Rows) != 2 {
		t.Errorf("merged rows = %d, want 2 (one per healthy member)", len(resp.Result.Rows))
	}
	sources := map[string]bool{}
	for _, row := range resp.Result.Rows {
		sources[row[0].Str] = true
	}
	if !sources["M2"] || !sources["M3"] {
		t.Errorf("rows missing a healthy member: %v", sources)
	}
}

// TestSimChaosBreakerShieldsRepeatedQueries: after enough refused dials the
// home ORB's breaker opens for the partitioned member's endpoint and later
// statements fail fast without dialing.
func TestSimChaosBreakerShieldsRepeatedQueries(t *testing.T) {
	fed := buildSimChaosFed(t, 2, orb.Options{
		Breaker: orb.BreakerPolicy{Threshold: 2, Cooldown: time.Hour},
	})
	fed.kill(0)
	s := fed.home.NewSession()
	for i := 0; i < 3; i++ {
		resp, err := s.Execute(context.Background(), chaosQuery)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Partial {
			t.Fatalf("round %d: Partial = false", i)
		}
	}
	states := fed.homeORB.BreakerSnapshot()
	st, ok := states[fed.addrs[0]]
	if !ok || st.State != orb.BreakerOpen {
		t.Fatalf("breaker for dead member = %+v, want open", st)
	}
	dialsBefore := fed.net.Stats().Dials
	resp, err := s.Execute(context.Background(), chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Members {
		if m.Member == "M0" && m.ErrClass != "breaker" {
			t.Errorf("M0 class = %q, want breaker (%s)", m.ErrClass, m.Err)
		}
	}
	if fed.homeORB.Stats.BreakerRejects.Load() == 0 {
		t.Error("no breaker rejects counted")
	}
	if dials := fed.net.Stats().Dials; dials != dialsBefore {
		t.Errorf("open breaker still dialed: %d -> %d", dialsBefore, dials)
	}
}

// TestSimChaosFailedJoinLeavesNoAdvertisement: one member is silent, so the
// join's advertisement to it only ends with the statement's own deadline.
// The rollback of the advertisements that did land must not run on that dead
// context: afterwards no surviving member may list the newcomer.
func TestSimChaosFailedJoinLeavesNoAdvertisement(t *testing.T) {
	fed := buildSimChaosFed(t, 3, orb.Options{})
	for _, m := range fed.members { // members hold the coalition too, as after a real formation
		if err := m.CoDB.DefineCoalition("Records", "", "chaos coalition"); err != nil {
			t.Fatal(err)
		}
		for _, peer := range fed.members {
			if err := m.CoDB.AddMember("Records", peer.Descriptor); err != nil {
				t.Fatal(err)
			}
		}
	}
	fed.stall(2)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := fed.home.NewSession().Execute(ctx, "Join Coalition Records;"); err == nil {
		t.Fatal("join succeeded with a silent member")
	}
	for _, m := range fed.members[:2] {
		listed, err := m.CoDB.Members("Records")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range listed {
			if d.Name == "Home" {
				t.Errorf("%s still advertises Home after the failed join", m.Config.Name)
			}
		}
	}
}
