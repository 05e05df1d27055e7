package query_test

import (
	"context"
	"fmt"
	"sort"
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

// TestSimChaosPartialResultDeadMember: 0, 1 or 2 of three members are
// partitioned away, with the member calls issued one at a time and in
// parallel. The coalition query degrades instead of aborting: exactly one row
// from each survivor, a status row for every member, and Partial set exactly
// when a member is dead.
func TestSimChaosPartialResultDeadMember(t *testing.T) {
	const members = 3
	for dead := 0; dead < members; dead++ {
		for _, fanOut := range []int{1, 0} {
			t.Run(fmt.Sprintf("dead=%d/fanout=%d", dead, fanOut), func(t *testing.T) {
				fed := buildSimChaosFed(t, members, orb.Options{
					RetryAttempts: 2,
				})
				fed.home.Processor.SetFanOut(fanOut)
				for i := 0; i < dead; i++ {
					fed.kill(i)
				}
				s := fed.home.NewSession()
				resp, err := s.Execute(context.Background(), chaosQuery)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Partial != (dead > 0) {
					t.Errorf("Partial = %v with %d dead member(s)", resp.Partial, dead)
				}
				if len(resp.Members) != members {
					t.Fatalf("member statuses = %d, want %d", len(resp.Members), members)
				}
				var want []string
				alive := map[string]bool{}
				for i := dead; i < members; i++ {
					want = append(want, fmt.Sprintf("M%d", i))
					alive[want[len(want)-1]] = true
				}
				for _, m := range resp.Members {
					switch {
					case alive[m.Member]:
						if !m.OK() {
							t.Errorf("healthy member %s failed: %s", m.Member, m.Err)
						}
					case m.OK():
						t.Errorf("dead member %s reported OK", m.Member)
					case m.ErrClass != "comm":
						t.Errorf("%s ErrClass = %q, want comm (%s)", m.Member, m.ErrClass, m.Err)
					case m.Attempts != 2:
						t.Errorf("%s attempts = %d, want 2 (retry)", m.Member, m.Attempts)
					}
				}
				var got []string
				for _, row := range resp.Result.Rows {
					got = append(got, row[0].Str)
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("rows from %v, want one from each survivor %v", got, want)
				}
				marker := fmt.Sprintf("partial result: %d of %d member(s) answered", members-dead, members)
				if strings.Contains(resp.Text, marker) != (dead > 0) {
					t.Errorf("with %d dead, want the marker %q only when a member is dead:\n%s",
						dead, marker, resp.Text)
				}
			})
		}
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

// TestSimChaosStreamLimitRefundsMidStreamDeath: a member that dies after
// the merge took a page of its rows is dropped whole, as a materialized
// merge would drop it, so its rows are refunded from the LIMIT progress and
// the members after it deliver the whole LIMIT. M0 holds 30 rows behind a
// 2-row merge window (pages of 2, 4 and 6 under the pushed Limit 12); it is
// partitioned away once the stream has read its first row, so its next
// fetch fails. The rows streamed after M0's are exactly what Execute, which
// never sees M0's rows, answers.
func TestSimChaosStreamLimitRefundsMidStreamDeath(t *testing.T) {
	const limit = 12
	fed := buildSimChaosFed(t, 3, orb.Options{})
	for i, m := range fed.members {
		var b strings.Builder
		for j := 1; j < 30; j++ {
			fmt.Fprintf(&b, "INSERT INTO r VALUES ('k%d', %d);", j, 100*(i+1)+j)
		}
		if _, err := m.RelDB.ExecScript(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	fed.home.Processor.SetMergeWindow(2)
	fed.home.Processor.SetFanOut(1)
	stmt := fmt.Sprintf(`V(R.K) On Coalition Records Limit %d;`, limit)
	s := fed.home.NewSession()
	rows, err := s.Stream(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	fed.kill(0)
	var fromM0 int
	var after []string
	for ok := true; ok; ok = rows.Next() {
		var src string
		var v int64
		if err := rows.Scan(&src, &v); err != nil {
			t.Fatal(err)
		}
		if src == "M0" && after == nil {
			fromM0++
			continue
		}
		after = append(after, fmt.Sprintf("%s/%d", src, v))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if fromM0 == 0 || fromM0 >= limit {
		t.Fatalf("M0 streamed %d rows before it died, want a page or two", fromM0)
	}
	if len(after) != limit {
		t.Fatalf("after M0 died mid-stream the stream gave %d rows, want the whole Limit %d: %v", len(after), limit, after)
	}
	if st := rows.Members(); st[0].OK() || !st[1].OK() || st[2].ErrClass != "limit" || !rows.Partial() {
		t.Fatalf("statuses %+v, partial %v: want M0 failed, M1 answered, M2 cut off by the limit", st, rows.Partial())
	}
	resp, err := s.Execute(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range resp.Result.Rows {
		want = append(want, fmt.Sprintf("%s/%d", row[0].Str, row[1].Int))
	}
	if strings.Join(after, ",") != strings.Join(want, ",") {
		t.Fatalf("streamed after M0: %v\nExecute: %v", after, want)
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
		RetryAttempts: 2,
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
