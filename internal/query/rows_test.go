package query_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/query"
	"repro/internal/trace"
)

// drainRows pulls every row out of a stream, returning the materialized rows.
func drainRows(t *testing.T, rows *query.Rows) []query.Row {
	t.Helper()
	var out []query.Row
	for rows.Next() {
		var src string
		var v idl.Any
		if err := rows.Scan(&src, &v); err != nil {
			t.Fatal(err)
		}
		out = append(out, query.Row{idl.String(src), v})
	}
	return out
}

func TestStreamMatchesExecute(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	exec, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Stream(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	streamed := drainRows(t, rows)
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(exec.Result.Rows) {
		t.Fatalf("streamed %d rows, Execute returned %d", len(streamed), len(exec.Result.Rows))
	}
	for i, row := range streamed {
		if !reflect.DeepEqual([]idl.Any(row), exec.Result.Rows[i]) {
			t.Fatalf("row %d: streamed %+v, materialized %+v", i, row, exec.Result.Rows[i])
		}
	}
	if !reflect.DeepEqual(rows.Columns(), exec.Result.Columns) {
		t.Fatalf("columns: streamed %v, materialized %v", rows.Columns(), exec.Result.Columns)
	}
	if rows.Partial() != exec.Partial {
		t.Fatalf("partial: streamed %v, materialized %v", rows.Partial(), exec.Partial)
	}
	sm, em := rows.Members(), exec.Members
	if len(sm) != len(em) {
		t.Fatalf("members: streamed %d, materialized %d", len(sm), len(em))
	}
	for i := range sm {
		if sm[i].Member != em[i].Member || sm[i].ErrClass != em[i].ErrClass {
			t.Fatalf("member %d: streamed %+v, materialized %+v", i, sm[i], em[i])
		}
	}
}

func TestStreamWithLimit(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C Limit 4;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	streamed := drainRows(t, rows)
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 4 {
		t.Fatalf("Limit 4 streamed %d rows", len(streamed))
	}
	for _, row := range streamed {
		if row[0].Str != "S0" {
			t.Fatalf("limit rows out of member order: %+v", streamed)
		}
	}
	if rows.Partial() {
		t.Fatalf("limit cut-off flagged partial: %+v", rows.Members())
	}
	if st := nodes[0].Processor.PlannerStats(); st.EarlyTerminations == 0 {
		t.Fatalf("stream's satisfied limit not counted: %+v", st)
	}
}

func TestStreamAllEarlyBreak(t *testing.T) {
	// A 2-row merge window (< planFixtureRows) makes the members hold real
	// server-side cursors open mid-stream, so the open-count assertions below
	// actually exercise cursor release.
	_, nodes := planFederation(t, 3, nil)
	setMergeWindow(nodes, 2)
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for i, row := range rows.All() {
		if len(row) != 2 {
			t.Fatalf("row %d has %d columns", i, len(row))
		}
		got++
		if got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("broke after %d rows", got)
	}
	// All closed the stream when the loop broke: abandoning mid-stream is not
	// an error, and further Next calls report exhaustion.
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next succeeded after the stream was closed")
	}
	// Every member's server-side cursor is released.
	for _, n := range nodes {
		if open := n.ISICursors().OpenCount(); open != 0 {
			t.Fatalf("node %s still holds %d open cursor(s)", n.Config.Name, open)
		}
	}
}

func TestStreamNonCoalitionMaterialized(t *testing.T) {
	_, nodes := planFederation(t, 2, nil)
	s := nodes[0].NewSession()

	// A single-source function query is not a coalition fan-out, so Stream
	// serves it from the materialized Execute path.
	rows, err := s.Stream(context.Background(), `V(R.K) On S1;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if len(rows.Columns()) == 0 {
		t.Fatal("materialized stream has no columns")
	}
	var got int
	for rows.Next() {
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if got != planFixtureRows {
		t.Fatalf("single-source stream returned %d rows, want %d", got, planFixtureRows)
	}
}

func TestRowsScanTypes(t *testing.T) {
	_, nodes := planFederation(t, 1, nil)
	s := nodes[0].NewSession()

	rows, err := s.Stream(context.Background(), `V(R.K) On Coalition C Limit 1;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var src string
	var v64 int64
	if err := rows.Scan(&src, &v64); err != nil {
		t.Fatal(err)
	}
	if src != "S0" || v64 != 0 {
		t.Fatalf("scanned (%q, %d)", src, v64)
	}
	var vi int
	var vf float64
	if err := rows.Scan(&src, &vi); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(&src, &vf); err != nil {
		t.Fatal(err)
	}
	var va idl.Any
	if err := rows.Scan(&src, &va); err != nil {
		t.Fatal(err)
	}
	if va.Kind != idl.KindLongLong || va.Int != int64(vi) || vf != float64(vi) {
		t.Fatalf("scan disagreement: any=%+v int=%d float=%g", va, vi, vf)
	}
	if err := rows.Scan(&src); err == nil {
		t.Fatal("Scan with the wrong destination count succeeded")
	}
	var bad struct{}
	if err := rows.Scan(&src, &bad); err == nil {
		t.Fatal("Scan into an unsupported type succeeded")
	}
}

func TestStreamingToggleParity(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	s := nodes[0].NewSession()
	ctx := context.Background()

	streamed, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Processor.SetStreaming(false)
	defer nodes[0].Processor.SetStreaming(true)
	materialized, err := s.Execute(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.Result, materialized.Result) {
		t.Fatalf("results differ across transports:\nstreamed: %+v\nmaterialized: %+v",
			streamed.Result, materialized.Result)
	}
	if streamed.Partial != materialized.Partial {
		t.Fatalf("partial bit differs across transports")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestStreamCancelReleasesEverything(t *testing.T) {
	_, nodes := planFederation(t, 3, nil)
	setMergeWindow(nodes, 2)
	s := nodes[0].NewSession()
	cursorsOpen := func() int {
		open := 0
		for _, n := range nodes {
			open += n.ISICursors().OpenCount()
		}
		return open
	}

	// Let one full stream settle the lazily-built plumbing (memoized clients,
	// parser pools) before taking the goroutine baseline.
	warm, err := s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	for warm.Next() {
	}
	warm.Close()
	baseline := runtime.NumGoroutine()
	live := gateway.LiveBatches()
	pagesBack := func() bool { return gateway.LiveBatches() == live }

	// Cancelling the statement context mid-stream must tear the fan-out down:
	// member sub-calls unwind, server-side cursors close, goroutines exit.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := s.Stream(ctx, `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	rows.Close()
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("ctx cancel left %d cursor(s) open", cursorsOpen())
	}
	if !waitFor(t, 2*time.Second, pagesBack) {
		t.Fatalf("ctx cancel left %d page(s) out of the pool", gateway.LiveBatches()-live)
	}

	// Close alone (no cancel) must release everything too.
	rows, err = s.Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	rows.Close()
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("Close left %d cursor(s) open", cursorsOpen())
	}
	if !waitFor(t, 2*time.Second, pagesBack) {
		t.Fatalf("Close left %d page(s) out of the pool", gateway.LiveBatches()-live)
	}
	if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// TestStreamBoundsCoordinatorBuffering: a member pages ahead of the merge
// only while it holds at most gateway.MaxPageRows rows — its stashed pages
// plus the one being read — so the peak stays under members x 2 x
// gateway.MaxPageRows however long the scan, even though pages grow from the
// 4-row first one to the maximum.
func TestStreamBoundsCoordinatorBuffering(t *testing.T) {
	const members, rowsEach, firstPage = 2, 5000, 4
	nodes := streamFederation(t, members, rowsEach, firstPage)
	nodes[0].Processor.SetFanOut(0) // every member runs ahead at once
	s := nodes[0].NewSession()

	live := gateway.LiveBatches()
	resp, err := s.Execute(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Result.Rows); got != members*rowsEach {
		t.Fatalf("full scan rows = %d", got)
	}
	st := nodes[0].Processor.PlannerStats()
	if st.PeakMergeBuffered < gateway.MaxPageRows {
		t.Fatalf("peak merge buffer %d: pages never grew to %d rows", st.PeakMergeBuffered, gateway.MaxPageRows)
	}
	if bound := int64(members * 2 * gateway.MaxPageRows); st.PeakMergeBuffered > bound {
		t.Fatalf("peak merge buffer %d exceeds members x 2 x max page = %d (the scan is %d rows)",
			st.PeakMergeBuffered, bound, members*rowsEach)
	}
	if !waitFor(t, 2*time.Second, func() bool { return gateway.LiveBatches() == live }) {
		t.Fatalf("batches out of the pool: %d before the scan, %d after", live, gateway.LiveBatches())
	}
}

// fetchesPerNode is each node's cursor fetch count, the open's page included.
func fetchesPerNode(nodes []*core.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.CursorStats().Fetches
	}
	return out
}

// readAheadStream opens a scan of members x 3000 rows behind a 4-row first
// page, every member dispatched at once, and reads one row: the merge then
// sits on member 0's first page while the members page on.
func readAheadStream(t *testing.T, members int) ([]*core.Node, *query.Rows) {
	t.Helper()
	nodes := streamFederation(t, members, 3000, 4)
	nodes[0].Processor.SetFanOut(0)
	rows, err := nodes[0].NewSession().Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	return nodes, rows
}

// TestStreamMembersReadAhead: without a LIMIT a member keeps fetching while
// the merge is busy elsewhere (here: nowhere, the consumer stopped after one
// row), pages 4, 8, ... 1024 — well past one page ahead, member 0 included,
// whose first page the merge holds — and stops once it holds more than
// gateway.MaxPageRows, so the merge still buffers at most members x 2 x
// MaxPageRows rows.
func TestStreamMembersReadAhead(t *testing.T) {
	const members = 3
	nodes, rows := readAheadStream(t, members)
	ahead := func() bool {
		for _, f := range fetchesPerNode(nodes) {
			if f <= 2 {
				return false
			}
		}
		return true
	}
	if !waitFor(t, 2*time.Second, ahead) {
		t.Fatalf("members stopped one page ahead of the merge: fetches %v", fetchesPerNode(nodes))
	}
	rows.Close()
	st := nodes[0].Processor.PlannerStats()
	if bound := int64(members * 2 * gateway.MaxPageRows); st.PeakMergeBuffered > bound {
		t.Fatalf("peak merge buffer %d exceeds members x 2 x max page = %d", st.PeakMergeBuffered, bound)
	}
}

// TestStreamLimitMembersDoNotReadAhead: under a LIMIT a member fetches its
// next page only once the merge has taken the last, so one the merge never
// reaches moves no row past its cursor's open.
func TestStreamLimitMembersDoNotReadAhead(t *testing.T) {
	nodes := streamFederation(t, 3, 3000, 4)
	nodes[0].Processor.SetFanOut(0)
	before := fetchesPerNode(nodes)
	rows, err := nodes[0].NewSession().Stream(context.Background(), `V(R.K) On Coalition C Limit 100;`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	opened := func() bool {
		for _, n := range nodes[1:] {
			if n.CursorStats().Opened == 0 {
				return false
			}
		}
		return true
	}
	if !waitFor(t, 2*time.Second, opened) {
		t.Fatal("members 1 and 2 never opened their cursors")
	}
	// A member that ignored the LIMIT would fetch ahead now; the check below
	// holds however long this lasts.
	time.Sleep(20 * time.Millisecond)
	if got := drainRows(t, rows); len(got) != 99 {
		t.Fatalf("Limit 100 streamed %d more rows after the first", len(got))
	}
	rows.Close()
	for i, f := range fetchesPerNode(nodes)[1:] {
		if d := f - before[i+1]; d != 1 {
			t.Errorf("member %d, never reached under the LIMIT, made %d fetch(es), want its open alone", i+1, d)
		}
	}
}

// TestStreamCloseReleasesStashedPages: pages members fetched ahead and never
// handed over go back to the pool when the consumer abandons the stream, with
// the members' cursors and goroutines.
func TestStreamCloseReleasesStashedPages(t *testing.T) {
	// A first stream settles the lazily-built plumbing before the baselines.
	nodes, warm := readAheadStream(t, 3)
	for warm.Next() {
	}
	warm.Close()
	baseline := runtime.NumGoroutine()
	live := gateway.LiveBatches()

	before := fetchesPerNode(nodes)
	rows, err := nodes[0].NewSession().Stream(context.Background(), `V(R.K) On Coalition C;`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	stashed := func() bool {
		for i, f := range fetchesPerNode(nodes) {
			if f-before[i] < 3 {
				return false
			}
		}
		return true
	}
	if !waitFor(t, 2*time.Second, stashed) {
		t.Fatalf("members never paged ahead: fetches %v from %v", fetchesPerNode(nodes), before)
	}
	rows.Close()
	cursorsOpen := func() (open int) {
		for _, n := range nodes {
			open += n.ISICursors().OpenCount()
		}
		return open
	}
	if !waitFor(t, 2*time.Second, func() bool { return cursorsOpen() == 0 }) {
		t.Fatalf("Close left %d cursor(s) open", cursorsOpen())
	}
	if !waitFor(t, 2*time.Second, func() bool { return gateway.LiveBatches() == live }) {
		t.Fatalf("Close left %d page(s) out of the pool", gateway.LiveBatches()-live)
	}
	if !waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// TestMemberSpansReportPages: one statement's trace shows what each member
// shipped and in how many round trips — 500 rows behind a 64-row first page
// are pages of 64, 128 and 308 (the last 308 fit in twice the 256-row page
// due, so no fourth page carries their tail).
func TestMemberSpansReportPages(t *testing.T) {
	const members, rows = 2, 500
	nodes := streamFederation(t, members, rows, 64)
	tr := trace.New(trace.Options{Capacity: 256})
	ctx, root := tr.StartSpan(context.Background(), "test")
	resp, err := nodes[0].NewSession().Execute(ctx, `V(R.K) On Coalition C;`)
	root.End(err)
	if err != nil || len(resp.Result.Rows) != members*rows {
		t.Fatalf("scan: %d rows, %v", len(resp.Result.Rows), err)
	}
	seen := 0
	for _, sp := range tr.TraceSpans(root.Context().Trace.String()) {
		if !strings.HasPrefix(sp.Name, "query.member:") {
			continue
		}
		seen++
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["pages"] != "3" || attrs["rows"] != strconv.Itoa(rows) {
			t.Errorf("%s: pages=%q rows=%q, want 3 and %d", sp.Name, attrs["pages"], attrs["rows"], rows)
		}
		if n, err := strconv.Atoi(attrs["bytes"]); err != nil || n < rows*8 {
			t.Errorf("%s: bytes=%q, want the size of three pages", sp.Name, attrs["bytes"])
		}
	}
	if seen != members {
		t.Fatalf("%d query.member: span(s) in the trace, want %d", seen, members)
	}
}

// TestStreamLimitCutsMidPage: the merge cuts the page that reaches the LIMIT
// where the LIMIT falls, in member 0's second page and in member 1's first.
// Behind a 2-row merge window, with nothing pushed, member 0's 6 rows come
// as pages of 2 and 4, member 1's 3 rows as one page, member 2's first page
// is 2 of its 6. Stream and Execute agree row for row, the members after
// the cut read "limit", the cut counts one early termination, and cutting a
// page fetches nothing more: the stream moves the pages it took and the
// first pages of the members it never reached, 11 rows, wherever the LIMIT
// cuts.
func TestStreamLimitCutsMidPage(t *testing.T) {
	const moved = 6 + 3 + 2
	_, nodes := planFederation(t, 3, func(i int, c *core.NodeConfig) {
		if i == 1 {
			c.Schema = "CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\n" +
				"INSERT INTO r VALUES ('r10', 1000); INSERT INTO r VALUES ('r11', 1001); INSERT INTO r VALUES ('r12', 1002);"
		}
	})
	setMergeWindow(nodes, 2)
	coord := nodes[0].Processor
	coord.SetPushdown(false)
	s := nodes[0].NewSession()
	ctx := context.Background()
	for _, tc := range []struct {
		limit int
		want  []int64 // v of each row, in order
		stop  int     // the member whose page the LIMIT cut
	}{
		{4, []int64{0, 1, 2, 3}, 0},
		{8, []int64{0, 1, 2, 3, 4, 5, 1000, 1001}, 1},
	} {
		stmt := fmt.Sprintf(`V(R.K) On Coalition C Limit %d;`, tc.limit)
		coord.SetFanOut(1)
		exec, err := s.Execute(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}

		// Every member is dispatched at once, and the merge reads on only
		// once the coordinator holds the four pages fetched before any cut
		// (member 0's two, the others' first), so what the stream moves
		// does not depend on when the cut lands.
		coord.SetFanOut(0)
		live := gateway.LiveBatches()
		before := coord.PlannerStats()
		rows, err := s.Stream(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		if !waitFor(t, 2*time.Second, func() bool { return gateway.LiveBatches()-live == 4 }) {
			t.Fatalf("the coordinator holds %d pages, want 4", gateway.LiveBatches()-live)
		}
		var src string
		var v idl.Any
		if err := rows.Scan(&src, &v); err != nil {
			t.Fatal(err)
		}
		streamed := append([]query.Row{{idl.String(src), v}}, drainRows(t, rows)...)
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()

		if len(streamed) != len(tc.want) || len(exec.Result.Rows) != len(tc.want) {
			t.Fatalf("Limit %d: streamed %d rows, Execute %d, want %d", tc.limit, len(streamed), len(exec.Result.Rows), len(tc.want))
		}
		for i, row := range streamed {
			if row[1].Int != tc.want[i] || !reflect.DeepEqual([]idl.Any(row), exec.Result.Rows[i]) {
				t.Fatalf("Limit %d, row %d: streamed %+v, Execute %+v, want v %d", tc.limit, i, row, exec.Result.Rows[i], tc.want[i])
			}
		}
		for i, st := range rows.Members() {
			if (i > tc.stop) != (st.ErrClass == "limit") || exec.Members[i].ErrClass != st.ErrClass {
				t.Errorf("Limit %d, member %d: streamed %+v, Execute %+v; the members after %d read limit", tc.limit, i, st, exec.Members[i], tc.stop)
			}
		}
		after := coord.PlannerStats()
		if d := after.EarlyTerminations - before.EarlyTerminations; d != 1 {
			t.Errorf("Limit %d: early terminations rose by %d, want 1", tc.limit, d)
		}
		if d := after.RowsMoved - before.RowsMoved; d != moved {
			t.Errorf("Limit %d: the stream moved %d rows, want %d", tc.limit, d, moved)
		}
		if !waitFor(t, 2*time.Second, func() bool { return gateway.LiveBatches() == live }) {
			t.Fatalf("Limit %d: %d page(s) out of the pool after Close", tc.limit, gateway.LiveBatches()-live)
		}
	}
}

// TestStreamRowsAllocateNothingPerRow: reading a streamed coalition result
// costs allocations per page — the members' pages, the merge's hand-over —
// and per statement, never per row: a drained 3-member, 6 000-row stream in
// 18 pages stays within a per-page constant that one allocation per row
// would exceed several times over.
func TestStreamRowsAllocateNothingPerRow(t *testing.T) {
	const members, rowsEach, perPage = 3, 2000, 60
	nodes := streamFederation(t, members, rowsEach, 64)
	s := nodes[0].NewSession()
	ctx := context.Background()
	fetches := func() (n int64) {
		for _, f := range fetchesPerNode(nodes) {
			n += f
		}
		return n
	}
	runs, before := 0, fetches()
	allocs := testing.AllocsPerRun(4, func() {
		runs++
		rows, err := s.Stream(ctx, `V(R.V, (R.V >= 0)) On Coalition C;`)
		if err != nil {
			t.Fatal(err)
		}
		var src string
		var v int64
		n := 0
		for rows.Next() {
			if err := rows.Scan(&src, &v); err != nil {
				t.Fatal(err)
			}
			n++
		}
		rows.Close()
		if n != members*rowsEach {
			t.Fatalf("streamed %d rows, want %d", n, members*rowsEach)
		}
	})
	pages := float64(fetches()-before) / float64(runs)
	t.Logf("%.0f allocations per %d-row stream of %.0f pages: %.1f per page", allocs, members*rowsEach, pages, allocs/pages)
	if allocs > perPage*pages {
		t.Fatalf("a %d-row stream of %.0f pages made %.0f allocations, over %d per page: the row path allocates",
			members*rowsEach, pages, allocs, perPage)
	}
}
