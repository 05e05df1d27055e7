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
			// Let the joined stores settle, so the reader's peer walk covers
			// the whole federation when the bound is taken.
			for r := 0; r < 4; r++ {
				fed.RunGossipRound(ctx)
			}
			query()

			steps := []struct{ stmt, before, after string }{
				{"Leave Coalition cy;", "N3,N4,N5", "N3,N4"},
				{"Join Coalition cy;", "N3,N4", "N3,N4,N5"},
			}
			for _, st := range steps {
				if _, err := writer.Session.Execute(ctx, st.stmt); err != nil {
					t.Fatalf("%s: %v\n%s", st.stmt, err, ReplayLine(seed))
				}
				if got := query(); got != st.before {
					t.Fatalf("after %q with no gossip round the reader saw %s, want its cached %s\n%s",
						st.stmt, got, st.before, ReplayLine(seed))
				}
				k := 2 * reader.Core.Gossip.CycleLen()
				rounds := 0
				for got := ""; got != st.after; got = query() {
					if rounds == k {
						t.Fatalf("after %q the reader still saw %s after k = %d rounds, want %s\n%s",
							st.stmt, got, k, st.after, ReplayLine(seed))
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
