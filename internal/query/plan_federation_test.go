package query_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/query"
)

// planFixtureRows is how many rows each planner-fixture node holds.
const planFixtureRows = 6

// planFederation builds an in-process coalition "C" of nodes all exporting
// V(R.K) over a table r with planFixtureRows rows each. Engines cycle
// Oracle → mSQL → ObjectStore so the plan mixes full-pushdown, partial
// (no LIKE) and OQL members. Node i's rows are ('r<i><j>', i*1000+j).
func planFederation(tb testing.TB, nodes int, nc func(i int, c *core.NodeConfig)) (*core.Federation, []*core.Node) {
	tb.Helper()
	f, err := core.NewFederation()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(f.Shutdown)
	engines := []string{core.EngineOracle, core.EngineMSQL, core.EngineObjectStore}
	iface := []codb.ExportedType{{
		Name: "R",
		Functions: []codb.ExportedFunction{{
			Name: "V", Returns: "int",
			Table: "r", ResultColumn: "v", ArgColumn: "k",
		}},
	}}
	var built []*core.Node
	var names []string
	for i := 0; i < nodes; i++ {
		cfg := core.NodeConfig{
			Name:            fmt.Sprintf("S%d", i),
			Engine:          engines[i%len(engines)],
			InformationType: "records",
			Interface:       iface,
		}
		if core.IsRelational(cfg.Engine) {
			var b strings.Builder
			b.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\n")
			for j := 0; j < planFixtureRows; j++ {
				fmt.Fprintf(&b, "INSERT INTO r VALUES ('r%d%d', %d);\n", i, j, i*1000+j)
			}
			cfg.Schema = b.String()
		} else {
			i := i
			cfg.SeedObjects = func(db *oodb.DB) error {
				if _, err := db.DefineClass("r", "",
					oodb.Attribute{Name: "k", Type: oodb.AttrString},
					oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
					return err
				}
				for j := 0; j < planFixtureRows; j++ {
					if _, err := db.NewObject("r", map[string]any{
						"k": fmt.Sprintf("r%d%d", i, j), "v": int64(i*1000 + j),
					}); err != nil {
						return err
					}
				}
				return nil
			}
		}
		if nc != nil {
			nc(i, &cfg)
		}
		n, err := f.AddNode(orb.VisiBroker, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		n.Processor.SetFanOut(1) // serial fan-out: deterministic row movement
		built = append(built, n)
		names = append(names, cfg.Name)
	}
	if err := f.DefineCoalition("C", "", "planner fixture", names...); err != nil {
		tb.Fatal(err)
	}
	return f, built
}

// setMergeWindow shrinks every node's merge window (and cursor batch) so the
// small fixture pages through real multi-fetch cursors.
func setMergeWindow(nodes []*core.Node, rows int) {
	for _, n := range nodes {
		n.Processor.SetMergeWindow(rows)
	}
}

func TestCoalitionTopKEarlyTermination(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	full, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(full.Result.Rows); got != 3*planFixtureRows {
		t.Fatalf("full scan rows = %d", got)
	}
	topK, err := s.Execute(ctx, `V(R.K) On Coalition C Limit 4;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topK.Result.Rows); got != 4 {
		t.Fatalf("Limit 4 rows = %d", got)
	}
	// Member order is deterministic: the first 4 rows all come from S0.
	for _, row := range topK.Result.Rows {
		if row[0].Str != "S0" {
			t.Fatalf("limit rows out of member order: %+v", topK.Result.Rows)
		}
	}
	if topK.RowsMoved >= full.RowsMoved {
		t.Fatalf("top-K moved %d rows, full moved %d", topK.RowsMoved, full.RowsMoved)
	}
	if topK.Partial {
		t.Fatalf("limit cut-off flagged partial: %+v", topK.Members)
	}
	seenLimit := 0
	for _, m := range topK.Members {
		if m.ErrClass == "limit" {
			seenLimit++
		}
	}
	if seenLimit != 2 {
		t.Fatalf("members after the satisfied limit = %d, statuses %+v", seenLimit, topK.Members)
	}
	if st := nodes[0].Processor.PlannerStats(); st.EarlyTerminations == 0 || st.LimitPushed == 0 {
		t.Fatalf("planner stats missed the top-K run: %+v", st)
	}
}

func TestCoalitionFallbackOnAdvertisedCapability(t *testing.T) {
	// S1 runs mSQL (no LIKE) but advertises Oracle: the planner pushes the
	// LIKE, the engine rejects it mid-query, and the member retries on the
	// bare fragment — the answer must still include S1's matching rows.
	_, nodes := planFederation(t, 3, func(i int, c *core.NodeConfig) {
		if i == 1 {
			c.AdvertiseEngine = core.EngineOracle
		}
	})
	s := nodes[0].NewSession()
	resp, err := s.Execute(context.Background(), `V(R.K, (R.K LIKE "r1%")) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Result.Rows); got != planFixtureRows {
		t.Fatalf("rows = %d (%+v)", got, resp.Result.Rows)
	}
	for _, row := range resp.Result.Rows {
		if row[0].Str != "S1" {
			t.Fatalf("unexpected source in rows: %+v", resp.Result.Rows)
		}
	}
	if resp.Partial {
		t.Fatalf("fallback flagged partial: %+v", resp.Members)
	}
	if st := nodes[0].Processor.PlannerStats(); st.Fallbacks == 0 {
		t.Fatalf("no fallback recorded: %+v", st)
	}
}

func TestSetPushdownRuntimeToggle(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()
	stmt := `V(R.K, (R.V >= 1000)) On Coalition C;`

	on, err := s.Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Processor.SetPushdown(false)
	off, err := s.Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Result.Rows) != len(off.Result.Rows) || len(on.Result.Rows) != 2*planFixtureRows {
		t.Fatalf("modes disagree: on=%d off=%d rows", len(on.Result.Rows), len(off.Result.Rows))
	}
	// Pushdown-on ships the predicate, so S0's non-matching rows never move.
	if on.RowsMoved >= off.RowsMoved {
		t.Fatalf("pushdown moved %d rows, compensation moved %d", on.RowsMoved, off.RowsMoved)
	}
}

func TestSingleSourceCompensation(t *testing.T) {
	// A direct (non-coalition) query against the mSQL member: LIKE cannot be
	// pushed, so the wrapper widens the projection, the coordinator filters,
	// and the caller still sees the single-column shape.
	_, nodes := planFederation(t, 3, nil)
	s := nodes[1].NewSession()
	resp, err := s.Execute(context.Background(), `V(R.K, (R.K LIKE "r10%")) On S1;`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Translated, "LIKE") {
		t.Fatalf("LIKE pushed to mSQL: %q", resp.Translated)
	}
	if len(resp.Result.Rows) != 1 || len(resp.Result.Rows[0]) != 1 {
		t.Fatalf("compensated rows = %+v", resp.Result.Rows)
	}
	if resp.Result.Rows[0][0].Int != 1000 {
		t.Fatalf("row = %+v", resp.Result.Rows[0])
	}
}

// TestOneSourceEqualsOneMemberCoalition runs the same function over a source
// and over a coalition whose only member is that source. Both go through one
// fragment runner, so values, rows moved and the fallback count must agree —
// on a clean push, on a stale engine claim that forces the bare retry, and
// when the coordinator enforces a LIMIT the engine was not given.
func TestOneSourceEqualsOneMemberCoalition(t *testing.T) {
	for _, tc := range []struct {
		name              string
		engine, advertise string
		preds, limit      string
		values            []int64
		moved             int
		// raced: the coalition member runs ahead of the merge, so how many
		// rows it pulled before the LIMIT's cancel landed is not fixed; only
		// the single-source count is.
		raced     bool
		fallbacks int64
	}{
		{name: "clean push", engine: core.EngineOracle,
			preds: `(R.V >= 3)`, values: []int64{3, 4, 5}, moved: 3},
		{name: "stale engine claim", engine: core.EngineMSQL, advertise: core.EngineOracle,
			preds: `(R.K LIKE "r0%")`, values: []int64{0, 1, 2, 3, 4, 5}, moved: planFixtureRows, fallbacks: 1},
		// mSQL keeps the LIKE residual, and a residual keeps the LIMIT home.
		{name: "unpushed limit met by the last row", engine: core.EngineMSQL,
			preds: `(R.K LIKE "%5")`, limit: " Limit 1", values: []int64{5}, moved: planFixtureRows},
		{name: "unpushed limit cuts the scan", engine: core.EngineMSQL,
			preds: `(R.K LIKE "r0%")`, limit: " Limit 2", values: []int64{0, 1}, moved: 2, raced: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, nodes := planFederation(t, 1, func(_ int, c *core.NodeConfig) {
				c.Engine, c.AdvertiseEngine = tc.engine, tc.advertise
			})
			s := nodes[0].NewSession()
			run := func(target string) (*query.Response, int64) {
				before := nodes[0].Processor.PlannerStats().Fallbacks
				resp, err := s.Execute(context.Background(), "V(R.K, "+tc.preds+") On "+target+tc.limit+";")
				if err != nil {
					t.Fatalf("On %s: %v", target, err)
				}
				return resp, nodes[0].Processor.PlannerStats().Fallbacks - before
			}
			single, singleFB := run("S0")
			coal, coalFB := run("Coalition C")

			var got, merged []int64
			for _, row := range single.Result.Rows {
				got = append(got, row[0].Int)
			}
			for _, row := range coal.Result.Rows {
				if row[0].Str != "S0" {
					t.Fatalf("coalition row from %q", row[0].Str)
				}
				merged = append(merged, row[1].Int)
			}
			if !reflect.DeepEqual(got, tc.values) || !reflect.DeepEqual(merged, tc.values) {
				t.Errorf("values: source %v, coalition %v, want %v", got, merged, tc.values)
			}
			if single.RowsMoved != tc.moved {
				t.Errorf("source moved %d rows, want %d", single.RowsMoved, tc.moved)
			}
			if tc.raced {
				if coal.RowsMoved < tc.moved || coal.RowsMoved > planFixtureRows {
					t.Errorf("coalition moved %d rows, want %d..%d", coal.RowsMoved, tc.moved, planFixtureRows)
				}
			} else if coal.RowsMoved != tc.moved {
				t.Errorf("coalition moved %d rows, source %d", coal.RowsMoved, single.RowsMoved)
			}
			if singleFB != tc.fallbacks || coalFB != tc.fallbacks {
				t.Errorf("fallbacks: source %d, coalition %d, want %d", singleFB, coalFB, tc.fallbacks)
			}
			if single.Result.Columns[0] != coal.Result.Columns[1] {
				t.Errorf("result column: source %q, coalition %q", single.Result.Columns[0], coal.Result.Columns[1])
			}
		})
	}
}

// BenchmarkFederatedPushdown measures a selective federated predicate with
// pushdown on vs off over the same coalition. The off mode pays to move every
// row to the coordinator; the on mode ships the predicate.
func BenchmarkFederatedPushdown(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			_, nodes := planFederation(b, 3, nil)
			nodes[0].Processor.SetPushdown(mode.on)
			s := nodes[0].NewSession()
			ctx := context.Background()
			stmt := `V(R.K, (R.V >= 2000)) On Coalition C;`
			b.ResetTimer()
			var moved int64
			for i := 0; i < b.N; i++ {
				resp, err := s.Execute(ctx, stmt)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Result.Rows) != planFixtureRows {
					b.Fatalf("rows = %d", len(resp.Result.Rows))
				}
				moved += int64(resp.RowsMoved)
			}
			b.ReportMetric(float64(moved)/float64(b.N), "rows-moved/op")
		})
	}
}

// BenchmarkFederatedTopK measures LIMIT early termination against the full
// scan — and asserts, in the benchmark itself, that the top-K run moves
// strictly fewer member rows than the full fan-out.
func BenchmarkFederatedTopK(b *testing.B) {
	_, nodes := planFederation(b, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	full, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name, stmt string
		rows       int
	}{
		{"full", `V(R.K) On Coalition C;`, 3 * planFixtureRows},
		{"limit4", `V(R.K) On Coalition C Limit 4;`, 4},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var moved int64
			for i := 0; i < b.N; i++ {
				resp, err := s.Execute(ctx, bench.stmt)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Result.Rows) != bench.rows {
					b.Fatalf("rows = %d, want %d", len(resp.Result.Rows), bench.rows)
				}
				if bench.rows < 3*planFixtureRows && resp.RowsMoved >= full.RowsMoved {
					b.Fatalf("top-K moved %d rows, full scan moved %d — early termination bought nothing",
						resp.RowsMoved, full.RowsMoved)
				}
				moved += int64(resp.RowsMoved)
			}
			b.ReportMetric(float64(moved)/float64(b.N), "rows-moved/op")
		})
	}
}
