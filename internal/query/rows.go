package query

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strings"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// Row is one merged result row. Coalition function queries yield
// [source, value] rows; other statements yield their result's native shape.
type Row []idl.Any

// Rows is a pull-based iterator over a statement's result, in the shape of
// database/sql: Next advances, Scan unpacks the current row, Err reports
// what stopped the iteration, Close releases everything behind it. For
// coalition function queries the rows stream from the members through
// server-side cursors as the caller iterates — the coordinator never holds
// more than two cursor pages per member — so Close must always be called: it
// cancels outstanding member sub-calls and closes their cursors. Other
// statement kinds materialize as they always did and iterate in memory. Not
// safe for concurrent use.
type Rows struct {
	sess *Session
	stmt wtl.Stmt
	sp   *trace.Span // statement span, ended at Close (streaming path only)

	// Streaming backing (coalition function queries).
	ms   *mergeStream
	plan *queryPlan

	// Semi-join build side (already drained when the Rows is handed out).
	buildStatuses []MemberStatus
	buildMoved    int64
	buildDegraded int

	// Materialized backing (every other statement kind).
	resp *Response
	pos  int

	cols      []string
	cur       Row
	pair      [2]idl.Any // the streaming path's current [source, value], reused row to row
	err       error
	delivered int64
	finished  bool // stream fully terminated, stats flushed
	closed    bool
}

// Stream parses and runs one WebTassili statement, returning its result as
// a pull-based row iterator. Coalition function queries execute as a
// streaming merge: member rows cross the wire in cursor pages, a member
// fetching at most one page ahead of what the caller has drained, so
// arbitrarily large scans run in bounded coordinator memory. Every other
// statement kind materializes exactly as Execute does and is served from
// memory. The context governs the whole life of the stream, not just the
// opening round trips.
func (s *Session) Stream(ctx context.Context, src string) (*Rows, error) {
	s.markStmtStart()
	stmt, err := wtl.Parse(src)
	if err != nil {
		return nil, err
	}
	s.tracef("query", "parsed %T", stmt)
	if q, ok := stmt.(*wtl.FuncQuery); ok && q.OnCoalition {
		ctx, sp := trace.StartSpan(ctx, stmtSpanName(stmt))
		rows, err := s.streamCoalition(ctx, q)
		if err != nil {
			sp.End(err)
			return nil, err
		}
		rows.sp = sp
		return rows, nil
	}
	resp, err := s.execTimed(ctx, stmt)
	if err != nil {
		return nil, err
	}
	r := &Rows{sess: s, stmt: stmt, resp: resp}
	if resp.Result != nil {
		r.cols = resp.Result.Columns
	}
	return r, nil
}

// streamCoalition plans a coalition function query and opens its merge
// stream. The caller owns the returned Rows (drain it or Close it).
// Statements with a SemiJoin clause route through the two-sided planner.
func (s *Session) streamCoalition(ctx context.Context, q *wtl.FuncQuery) (*Rows, error) {
	if q.Join != nil {
		return s.streamSemiJoin(ctx, q)
	}
	plan, err := s.resolveCoalitionPlan(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Rows{sess: s, stmt: q, plan: plan, ms: s.newMergeStream(ctx, plan, plan.Limit, nil, nil)}, nil
}

// resolveCoalitionPlan builds (or replays) one coalition plan and counts the
// planner stats its decomposition contributes. Semi-join statements resolve
// two of these — one per side.
func (s *Session) resolveCoalitionPlan(ctx context.Context, q *wtl.FuncQuery) (*queryPlan, error) {
	entry, err := s.p.coalitionEntry(ctx, s, q.Source)
	if err != nil {
		return nil, err
	}
	plan, out, err := s.p.cachedPlan(ctx, entry, q, s.p.pushdownOn())
	if err != nil {
		return nil, err
	}
	s.p.stats.plans.Add(1)
	if out == mdcache.Hit || out == mdcache.Coalesced {
		s.p.stats.planCacheHits.Add(1)
	}
	for i := range plan.Members {
		mp := &plan.Members[i]
		s.tracef("data", "decomposed query on %s (%s): %s", mp.D.Name, mp.D.Engine, mp.Exec.Native)
		s.p.stats.fragmentsPushed.Add(int64(mp.Exec.Pushed))
		s.p.stats.fragmentsCompensated.Add(int64(len(mp.Exec.Residual)))
		if mp.Exec.LimitPushed {
			s.p.stats.limitPushed.Add(1)
		}
	}
	return plan, nil
}

// Columns names the result columns. For the streaming path the merge learns
// the result column from the first member that answers, so Columns is
// reliable after the first Next (or after the iteration ends).
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting false when the iteration ends —
// exhaustion, a satisfied LIMIT, or a terminal error (see Err).
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.ms != nil {
		v, m, ok := r.ms.Next()
		if !ok {
			r.finishStream(true)
			return false
		}
		r.delivered++
		if r.cols == nil && r.ms.runs[m].Column != "" {
			r.cols = []string{"source", r.ms.runs[m].Column}
		}
		r.pair[0], r.pair[1] = r.ms.names[m], v
		r.cur = r.pair[:]
		return true
	}
	if r.resp == nil || r.resp.Result == nil || r.pos >= len(r.resp.Result.Rows) {
		return false
	}
	r.cur = Row(r.resp.Result.Rows[r.pos])
	r.pos++
	return true
}

// Scan unpacks the current row into dest, one destination per column:
// *string, *int, *int64, *float64, *bool, or *idl.Any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return errors.New("query: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("query: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case *string:
			if v.Kind == idl.KindString {
				*p = v.Str
			} else {
				*p = v.String()
			}
		case *int64:
			*p = v.Int
		case *int:
			*p = int(v.Int)
		case *float64:
			if v.Kind == idl.KindFloat || v.Kind == idl.KindDouble {
				*p = v.Float
			} else {
				*p = float64(v.Int)
			}
		case *bool:
			*p = v.Bool
		case *idl.Any:
			*p = v
		default:
			return fmt.Errorf("query: Scan does not support destination type %T", d)
		}
	}
	return nil
}

// Err reports the error that terminated the iteration, if any: for coalition
// queries that is the quorum failure Execute would have returned. nil while
// rows are still flowing.
func (r *Rows) Err() error { return r.err }

// Members reports the per-member outcome of the fan-out behind the rows —
// for a semi-join, the probe side's statuses followed by the build side's.
// Stable once the iteration has ended (Next returned false, or Close).
func (r *Rows) Members() []MemberStatus {
	if r.ms != nil {
		if len(r.buildStatuses) > 0 {
			out := make([]MemberStatus, 0, len(r.ms.statuses)+len(r.buildStatuses))
			out = append(out, r.ms.statuses...)
			return append(out, r.buildStatuses...)
		}
		return r.ms.statuses
	}
	if r.resp != nil {
		return r.resp.Members
	}
	return nil
}

// Partial reports whether some member failed while enough answered for the
// result to stand, degraded. Stable once the iteration has ended.
func (r *Rows) Partial() bool {
	if r.ms != nil {
		_, degraded, _ := r.ms.tally()
		return degraded > 0 || r.buildDegraded > 0
	}
	return r.resp != nil && r.resp.Partial
}

// All returns a range-over-func view of the remaining rows, closing the
// stream when the loop ends (normally or by break). Check Err after the
// loop. Each yielded Row is only valid for that iteration.
func (r *Rows) All() iter.Seq2[int, Row] {
	return func(yield func(int, Row) bool) {
		defer r.Close()
		for i := 0; r.Next(); i++ {
			if !yield(i, r.cur) {
				return
			}
		}
	}
}

// Close releases the stream: outstanding member sub-calls are cancelled and
// their server-side cursors closed. Idempotent; always safe to defer.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.ms != nil && !r.finished {
		// Abandoned mid-stream: release the fan-out but skip the quorum
		// verdict — the caller walked away before the answer was complete.
		r.finishStream(false)
	}
	if r.sp != nil {
		r.sp.End(r.err)
	}
	return nil
}

// finishStream terminates the merge once and (when evaluate is set) applies
// the quorum policy to r.err.
func (r *Rows) finishStream(evaluate bool) {
	if r.finished {
		return
	}
	r.finished = true
	ms := r.ms
	ms.Close()
	if r.cols == nil {
		r.cols = ms.mergedColumns()
	}
	r.sess.p.stats.rowsDelivered.Add(r.delivered)
	if evaluate {
		answered, _, firstErr := ms.tally()
		r.err = ms.quorumErr(r.stmt.(*wtl.FuncQuery).Source, answered, firstErr)
	}
}

// drainResponse consumes the whole stream and rebuilds the materialized
// Response shape — Execute's coalition path is exactly this drain, so the
// streamed and materialized answers are identical by construction.
func (r *Rows) drainResponse() (*Response, error) {
	if r.ms == nil {
		return r.resp, nil
	}
	s, ms, q := r.sess, r.ms, r.stmt.(*wtl.FuncQuery)
	merged := &gateway.Result{Rows: ms.drainAll()}
	r.finished = true
	r.closed = true
	merged.Columns = ms.mergedColumns()

	answered, degraded, firstErr := ms.tally()
	if err := ms.quorumErr(q.Source, answered, firstErr); err != nil {
		return nil, err
	}
	s.p.stats.rowsDelivered.Add(int64(len(merged.Rows)))
	return coalitionResponse(q, r.plan, merged, r.Members(), answered,
		degraded > 0 || r.buildDegraded > 0, ms.rowsMoved+r.buildMoved), nil
}

// coalitionResponse assembles the materialized Response of a coalition
// statement from its merged rows and member accounting; plan is the side
// whose rows are returned.
func coalitionResponse(q *wtl.FuncQuery, plan *queryPlan, merged *gateway.Result, members []MemberStatus, answered int, partial bool, moved int64) *Response {
	translations := make([]string, len(plan.Members))
	for i := range plan.Members {
		translations[i] = plan.Members[i].D.Name + ": " + plan.Members[i].Exec.Native
	}
	text := merged.Format()
	if partial {
		text += fmt.Sprintf("(partial result: %d of %d member(s) answered)\n", answered, len(plan.Members))
	}
	return &Response{
		Stmt:       q,
		Result:     merged,
		Translated: strings.Join(translations, "\n"),
		Text:       text,
		Members:    members,
		Partial:    partial,
		RowsMoved:  int(moved),
	}
}
