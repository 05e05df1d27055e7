package query_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/oodb"
)

// streamBenchRows is the per-node row count for the streaming benchmark:
// large enough that a materialized member reply is thousands of rows while
// the streamed merge holds at most two pages per member.
const streamBenchRows = 2000

// streamFederation is the planner fixture widened to rows rows per node:
// node i's row j is ('x<i>-<j>', j), so a scan-filter on V touches every row.
// bufRows is the merge window, the first cursor page.
func streamFederation(tb testing.TB, members, rows, bufRows int) []*core.Node {
	tb.Helper()
	_, nodes := planFederation(tb, members, func(i int, c *core.NodeConfig) {
		if core.IsRelational(c.Engine) {
			var b strings.Builder
			b.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\n")
			for j := 0; j < rows; j++ {
				fmt.Fprintf(&b, "INSERT INTO r VALUES ('x%d-%d', %d);\n", i, j, j)
			}
			c.Schema = b.String()
			return
		}
		c.SeedObjects = func(db *oodb.DB) error {
			if _, err := db.DefineClass("r", "",
				oodb.Attribute{Name: "k", Type: oodb.AttrString},
				oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
				return err
			}
			for j := 0; j < rows; j++ {
				if _, err := db.NewObject("r", map[string]any{
					"k": fmt.Sprintf("x%d-%d", i, j), "v": int64(j),
				}); err != nil {
					return err
				}
			}
			return nil
		}
	})
	setMergeWindow(nodes, bufRows)
	return nodes
}

// BenchmarkFederatedStreaming measures a large scan-filter federated query
// with the member cursor protocol on (rows page across the wire, 64 rows
// first, then doubling to gateway.MaxPageRows) vs off (each member
// materializes its whole result in one reply). Reported per mode: p99
// statement latency, rows moved per fetch round trip, and the coordinator's
// peak merge buffer — which the cursor mode must keep bounded by members x 2
// x the largest page regardless of scan size (asserted here).
func BenchmarkFederatedStreaming(b *testing.B) {
	const members, bufRows = 3, 64
	for _, mode := range []struct {
		name string
		on   bool
	}{{"cursor", true}, {"materialized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			nodes := streamFederation(b, members, streamBenchRows, bufRows)
			nodes[0].Processor.SetStreaming(mode.on)
			s := nodes[0].NewSession()
			ctx := context.Background()
			stmt := `V(R.V, (R.V >= 0)) On Coalition C;`
			fetchesBefore := int64(0)
			for _, n := range nodes {
				fetchesBefore += n.CursorStats().Fetches
			}
			b.ReportAllocs()
			b.ResetTimer()
			var moved int64
			lat := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				resp, err := s.Execute(ctx, stmt)
				lat = append(lat, time.Since(start))
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Result.Rows) != members*streamBenchRows {
					b.Fatalf("rows = %d, want %d", len(resp.Result.Rows), members*streamBenchRows)
				}
				moved += int64(resp.RowsMoved)
			}
			b.StopTimer()
			b.ReportMetric(float64(moved)/float64(b.N), "rows-moved/op")
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p99 := lat[len(lat)*99/100]
			b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
			var fetches int64
			for _, n := range nodes {
				fetches += n.CursorStats().Fetches
			}
			if d := fetches - fetchesBefore; d > 0 {
				b.ReportMetric(float64(moved)/float64(d), "rows/fetch")
			}
			peak := nodes[0].Processor.PlannerStats().PeakMergeBuffered
			b.ReportMetric(float64(peak), "peak-merge-rows")
			if bound := int64(members * 2 * gateway.MaxPageRows); mode.on && peak > bound {
				b.Fatalf("streamed coordinator buffered %d rows, bound is members x 2 x max page = %d", peak, bound)
			}
		})
	}
}
