package query_test

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestStreamBoundsCoordinatorBuffering: the coordinator never holds more than
// two cursor pages per member — one being read, one waiting to be handed over
// — so the peak stays under members x 2 x gateway.MaxPageRows however long
// the scan, even though pages grow from the 4-row first one to the maximum.
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

// TestMemberSpansReportPages: one statement's trace shows what each member
// shipped and in how many round trips — 300 rows behind a 64-row first page
// are pages of 64, 128 and 108.
func TestMemberSpansReportPages(t *testing.T) {
	const members = 2
	nodes := streamFederation(t, members, 300, 64)
	tr := trace.New(trace.Options{Capacity: 256})
	ctx, root := tr.StartSpan(context.Background(), "test")
	resp, err := nodes[0].NewSession().Execute(ctx, `V(R.K) On Coalition C;`)
	root.End(err)
	if err != nil || len(resp.Result.Rows) != members*300 {
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
		if attrs["pages"] != "3" || attrs["rows"] != "300" {
			t.Errorf("%s: pages=%q rows=%q, want 3 and 300", sp.Name, attrs["pages"], attrs["rows"])
		}
		if n, err := strconv.Atoi(attrs["bytes"]); err != nil || n < 300*8 {
			t.Errorf("%s: bytes=%q, want the size of three pages", sp.Name, attrs["bytes"])
		}
	}
	if seen != members {
		t.Fatalf("%d query.member: span(s) in the trace, want %d", seen, members)
	}
}
