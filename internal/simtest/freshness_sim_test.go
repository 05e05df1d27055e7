package simtest

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/gossip"
)

// TestBoundedStalenessAcrossLinkedCoalitions pins how long a reader outside a
// coalition can be served a member list the coalition has moved past. It is
// fed13's shape in small: no backbone coalition, coalition cx = N0..N2 and
// coalition cy = N3..N5, joined only by service links, so at first no gossip
// store spans both. The reader N0 runs a coalition query on cy, entering
// through cy's first member N3; N5 then leaves cy and joins it again.
//
//   - The reader's first statement learns N3: after it, N0's store holds N3's
//     entry, and the answers it cached are N3's.
//   - After each write and before any gossip round, the reader is still served
//     the member list it cached: that is the cache at work, not a refetch.
//   - The reader sees the write within k = 2·CycleLen gossip rounds. N0 walks
//     its peers in shuffled cycles of CycleLen rounds, so two consecutive
//     contacts with N3 are at most two cycles apart, and a pull from N3
//     carries N3's current version (the servant re-reads its own entry). The
//     epidemic path — N3's next round puts the version in its own store, and
//     push-pull spreads it in about two more — usually beats that bound.
//
// A second session on N0 browses instead: it connects to cy, entering through
// N3 too, and runs Display Instances of Class cy. It is held to the same
// bounds, since browsing reads the peer's member list through the same cache.
// Its other browsing statements put N3's descriptors, sub-coalitions and
// links in N0's cache, and checkCacheCoherence runs after every read.
func TestBoundedStalenessAcrossLinkedCoalitions(t *testing.T) {
	for _, seed := range seedsUnderTest() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fed, err := Build(Config{
				Seed:            seed,
				Nodes:           6,
				NoBaseCoalition: true,
				Topology:        map[string][]int{"cx": {0, 1, 2}, "cy": {3, 4, 5}},
			})
			if err != nil {
				t.Fatalf("build: %v\n%s", err, ReplayLine(seed))
			}
			defer fed.Close()
			linkCoalitions(t, fed, "cx", "cy")
			linkCoalitions(t, fed, "cy", "cx")
			ctx := context.Background()
			for r := 0; r < 2; r++ {
				fed.RunGossipRound(ctx)
			}
			reader, entry, writer := fed.Nodes[0], fed.Nodes[3], fed.Nodes[5]
			store := reader.Core.Gossip.Store()
			entrySrc := gossip.Source(entry.Core.Descriptor.CoDBRef)
			if _, ok := store.SourceVersion(entrySrc); ok {
				t.Fatalf("N0's store knows N3 before any statement: the coalitions are not apart\n%s", ReplayLine(seed))
			}

			query := func() string {
				t.Helper()
				resp, err := reader.Session.Execute(ctx, `V(R.K, (R.K = "a")) On Coalition cy;`)
				if err != nil {
					t.Fatalf("reader query: %v\n%s", err, ReplayLine(seed))
				}
				var names []string
				for _, row := range resp.Result.Rows {
					names = append(names, strings.Trim(fmt.Sprint(row[0]), `"`))
				}
				return strings.Join(names, ",")
			}
			if got := query(); got != "N3,N4,N5" {
				t.Fatalf("first answer %s, want N3,N4,N5\n%s", got, ReplayLine(seed))
			}
			if _, ok := store.SourceVersion(entrySrc); !ok {
				t.Fatalf("N0's store does not know N3 after the first statement\n%s", ReplayLine(seed))
			}
			browser := reader.Core.NewSession()
			if _, err := browser.Execute(ctx, "Connect To Coalition cy;"); err != nil {
				t.Fatalf("browser connect: %v\n%s", err, ReplayLine(seed))
			}
			oracle := NewOracle(len(fed.Nodes), fed.Members)
			fail := func(inv, format string, args ...any) {
				t.Errorf("%s: %s\n%s", inv, fmt.Sprintf(format, args...), ReplayLine(seed))
			}
			// read answers the function query and Display Instances, as
			// "<query rows> / <instances>". The browser's other statements
			// fill the remaining families the coherence check then reads.
			read := func() string {
				t.Helper()
				rows := query()
				var instances string
				for i, stmt := range []string{
					"Display Instances of Class cy;",
					"Display Access Information of Instance N4;",
					"Display SubClasses of Class cy;",
					"Display Service Links;",
				} {
					resp, err := browser.Execute(ctx, stmt)
					if err != nil {
						t.Fatalf("browser %s: %v\n%s", stmt, err, ReplayLine(seed))
					}
					if i == 0 {
						instances = strings.Join(resp.Names, ",")
					}
				}
				checkCacheCoherence(fed, oracle, fail)
				return rows + " / " + instances
			}
			// Let the joined stores settle, so the reader's peer walk covers
			// the whole federation when the bound is taken.
			for r := 0; r < 4; r++ {
				fed.RunGossipRound(ctx)
			}
			if got := read(); got != "N3,N4,N5 / N3,N4,N5" {
				t.Fatalf("settled answers %s, want N3,N4,N5 from both readers\n%s", got, ReplayLine(seed))
			}

			steps := []struct {
				op                  OpKind
				stmt, before, after string
			}{
				{OpLeave, "Leave Coalition cy;", "N3,N4,N5", "N3,N4"},
				{OpJoin, "Join Coalition cy;", "N3,N4", "N3,N4,N5"},
			}
			for _, st := range steps {
				if _, err := writer.Session.Execute(ctx, st.stmt); err != nil {
					t.Fatalf("%s: %v\n%s", st.stmt, err, ReplayLine(seed))
				}
				oracle.Apply(Op{Kind: st.op, Node: writer.Idx, Coalition: "cy"})
				before, after := st.before+" / "+st.before, st.after+" / "+st.after
				if got := read(); got != before {
					t.Fatalf("after %q with no gossip round the readers saw %s, want their cached %s\n%s",
						st.stmt, got, before, ReplayLine(seed))
				}
				k := 2 * reader.Core.Gossip.CycleLen()
				rounds := 0
				for got := ""; got != after; got = read() {
					if rounds == k {
						t.Fatalf("after %q the readers still saw %s after k = %d rounds, want %s\n%s",
							st.stmt, got, k, after, ReplayLine(seed))
					}
					fed.RunGossipRound(ctx)
					rounds++
				}
				t.Logf("%s seen by N0 after %d of k = %d rounds", st.stmt, rounds, k)
			}
		})
	}
}

// linkCoalitions records a service link from coalition from to coalition to
// in every member of from, carrying the reference of to's first member — the
// wiring core.Federation.AddLink does for one-ORB federations.
func linkCoalitions(t *testing.T, fed *Fed, from, to string) {
	t.Helper()
	link := &codb.ServiceLink{
		Name: from + "To" + to, FromKind: "coalition", From: from,
		ToKind: "coalition", To: to, InfoType: "records",
		CoDBRef: fed.Nodes[fed.Members[to][0]].Core.Descriptor.CoDBRef,
	}
	for _, i := range fed.Members[from] {
		if err := fed.Nodes[i].Core.CoDB.AddLink(link); err != nil {
			t.Fatal(err)
		}
	}
}
