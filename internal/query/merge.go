package query

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/trace"
)

// Streaming coalition merge. Each member's rows flow, a page at a time,
// through an unbuffered channel (backpressure instead of buffering whole
// result sets); the coordinator consumes the channels strictly in member
// order, so the merged output is deterministic regardless of member timing.
// Members are read through the gateway cursor protocol (Conn.QueryCursor): a
// page is one round trip, the first of defaultMergeWindow rows, the following
// ones doubling up to gateway.MaxPageRows. Backpressure reaches the wire: a
// member fetches page n+1 while the merge drains page n and then waits to
// hand it over, so it is never more than one page ahead and the coordinator
// holds at most two pages per member, whatever the scan size. A statement
// LIMIT terminates the fan-out early: once K rows are merged the remaining
// members' sub-calls are cancelled (closing their server-side cursors) and
// their statuses report ErrClass "limit" — satisfied, not degraded.

// errLimitSatisfied is the fan-out cancel cause once a statement LIMIT is
// met; errStreamClosed is the cause when the consumer abandons the stream.
// Members cancelled for either reason completed their part of the statement:
// their sub-call errors are not failures.
var (
	errLimitSatisfied = errors.New("query: limit satisfied")
	errStreamClosed   = errors.New("query: stream closed")
)

// mergeCancelled reports whether the member context was cancelled by the
// merge itself (limit satisfied, stream closed) rather than by the caller.
func mergeCancelled(ctx context.Context) bool {
	cause := context.Cause(ctx)
	return errors.Is(cause, errLimitSatisfied) || errors.Is(cause, errStreamClosed)
}

// mergeStream is one pull-based coalition merge in flight. The consumer
// calls Next to receive merged rows in member order and Close to release
// the fan-out (cancelling outstanding sub-calls and their cursors). It is
// the engine under both Session.Execute (which drains it) and Session.Stream
// (which hands it to the caller behind a Rows). Not safe for concurrent use.
type mergeStream struct {
	sess     *Session
	plan     *queryPlan
	chans    []chan *gateway.Batch // pages of compensated rows; column 0 is the result value
	names    []idl.Any             // per member: its name, the merged rows' source column
	statuses []MemberStatus
	runs     []fragmentRun   // per member; Column is readable once the member's first row arrives
	ctx      context.Context // the fan-out's context; cancel ends it with a cause
	cancel   context.CancelCauseFunc
	fanDone  chan struct{}
	fan      memberFan

	// limit is the effective row cap (plan.Limit normally). A semi-join
	// probe decouples it from the plan: the cached plan carries no limit
	// (a member-side LIMIT under a coordinator filter would under-fetch)
	// while the merge still terminates early on post-filter rows.
	limit int
	// filter, when set, admits rows by result value before they count or
	// ship — the semi-join key filter. Rejected rows are fetched (they show
	// in rowsMoved) but never buffered, delivered or counted toward limit.
	filter *semiJoinFilter
	// overrides, when set, replaces member i's planned execution — the
	// semi-join probe's per-statement IN rendering. nil entries run Exec.
	overrides []*fragmentExec

	cur       int            // channel currently being drained
	page      *gateway.Batch // page of member cur being read in place; nil between pages
	pos       int            // next row of page
	delivered []int          // rows emitted per member
	progress  int            // rows counted toward the LIMIT (failed members refunded)
	stop      int            // member index that satisfied the LIMIT (-1: none)
	eof       bool
	closed    bool

	rowsMoved   int64        // rows fetched from members, pre-compensation; summed from runs at Close
	probePruned atomic.Int64 // rows rejected by the semi-join key filter
	sjFallbacks atomic.Int64 // bare retries of fragments that carried a key set

	// inflight counts the rows of the pages the merge holds (pulled from a
	// member's cursor and compensated, not yet drained): the page each
	// member is waiting to hand over plus the one being read; peakInflight
	// is its high-water mark. It never exceeds members x 2 x the largest
	// page, whatever the scan size.
	inflight     atomic.Int64
	peakInflight atomic.Int64
}

// newMergeStream fans the plan out and returns the pull side of the merge.
// Each merged row is [source, result-column]; residual conjuncts and the key
// filter are applied in the worker, before the channel send, so backpressure
// is paid only for rows that will be delivered. limit is
// plan.Limit for a plain statement; a semi-join passes its own effective
// limit, a coordinator-side key filter, and per-member execution overrides
// carrying pushed key sets.
func (s *Session) newMergeStream(ctx context.Context, plan *queryPlan, limit int, filter *semiJoinFilter, overrides []*fragmentExec) *mergeStream {
	n := len(plan.Members)
	ms := &mergeStream{
		sess:      s,
		plan:      plan,
		chans:     make([]chan *gateway.Batch, n),
		names:     make([]idl.Any, n),
		statuses:  make([]MemberStatus, n),
		runs:      make([]fragmentRun, n),
		fanDone:   make(chan struct{}),
		delivered: make([]int, n),
		stop:      -1,
		limit:     limit,
		filter:    filter,
		overrides: overrides,
	}
	for i := range plan.Members {
		ms.statuses[i] = notDispatched(plan.Members[i].D.Name, plan.Members[i].D.ISIRef)
		ms.names[i] = idl.String(plan.Members[i].D.Name)
		ms.chans[i] = make(chan *gateway.Batch)
	}
	mergeCtx, cancel := context.WithCancelCause(ctx)
	ms.cancel = cancel
	ms.ctx = mergeCtx
	ms.fan = memberFan{span: "query.member:", sess: s, layer: "data", what: "member ",
		call: func(ctx context.Context, i int, sp *trace.Span) error { return s.runMember(ctx, ms, i, sp) }}
	go func() {
		defer close(ms.fanDone)
		// A member's channel closes after callMember returns, when its status
		// is final — which is what lets Next read the status race-free.
		fanOutCtx(mergeCtx, n, s.p.fanOutWidth(), func(i int) {
			s.p.callMember(mergeCtx, &ms.statuses[i], i, &ms.fan)
			close(ms.chans[i])
		})
		// Members the fan-out never dispatched (context cancelled first)
		// still need their channels closed so the merge loop can pass them.
		for i := range ms.chans {
			if ms.statuses[i].ErrClass == "skipped" {
				close(ms.chans[i])
			}
		}
	}()
	return ms
}

// Next returns the next merged value and the index of the member that
// produced it (ms.names has the member's source column); ok is false once the
// merge is exhausted or the statement LIMIT has been satisfied. Values are
// read in place from the member's current page. A member's status is final
// by the time Next moves past its channel, which is what makes the refund
// below — and reading statuses after Close — race-free.
func (ms *mergeStream) Next() (v idl.Any, member int, ok bool) {
	if ms.eof || ms.closed {
		return idl.Any{}, 0, false
	}
	for ms.cur < len(ms.chans) {
		if ms.page == nil {
			b, open := <-ms.chans[ms.cur]
			if !open {
				st := &ms.statuses[ms.cur]
				if !st.OK() && ms.delivered[ms.cur] > 0 {
					// The member failed mid-stream after delivering rows. A
					// materialized merge would have dropped the member whole, so
					// refund its rows from the LIMIT progress; the drain side
					// drops the rows themselves by provenance.
					ms.progress -= ms.delivered[ms.cur]
				}
				ms.cur++
				continue
			}
			ms.page, ms.pos = b, 0
		}
		if ms.pos >= ms.page.Len() {
			ms.releasePage()
			continue
		}
		v = ms.page.Value(0, ms.pos)
		ms.pos++
		m := ms.cur
		ms.delivered[m]++
		ms.progress++
		if ms.limit > 0 && ms.progress >= ms.limit {
			ms.stop = m
			ms.eof = true
			ms.cancel(errLimitSatisfied) // release the members still running or queued
		}
		return v, m, true
	}
	ms.eof = true
	return idl.Any{}, 0, false
}

// releasePage returns the page being read to the pool.
func (ms *mergeStream) releasePage() {
	if ms.page != nil {
		ms.inflight.Add(-int64(ms.page.Len()))
		ms.page.Release()
		ms.page = nil
	}
}

// drainAll consumes the stream to its end, closes it, and returns the
// [source, value] rows of the members that answered: rows delivered by a
// member that failed mid-stream are dropped by provenance (a materialized
// merge never sees a failed member's rows). The rows are cut from one slab
// per page, since the caller keeps them all.
func (ms *mergeStream) drainAll() [][]idl.Any {
	var rows [][]idl.Any
	var memberOf []int
	var slab []idl.Any
	for {
		v, m, ok := ms.Next()
		if !ok {
			break
		}
		if len(slab)+2 > cap(slab) {
			slab = make([]idl.Any, 0, 2*(ms.page.Len()-ms.pos+1))
		}
		slab = append(slab, ms.names[m], v)
		rows = append(rows, slab[len(slab)-2:len(slab):len(slab)])
		memberOf = append(memberOf, m)
	}
	ms.Close()
	dropped := false
	for i := range ms.statuses {
		dropped = dropped || !ms.statuses[i].OK() && ms.delivered[i] > 0
	}
	if !dropped {
		return rows
	}
	kept := rows[:0]
	for k, row := range rows {
		if ms.statuses[memberOf[k]].OK() {
			kept = append(kept, row)
		}
	}
	return kept
}

// Close abandons or finalises the stream: outstanding member sub-calls are
// cancelled (closing their server-side cursors), the fan-out is awaited,
// post-LIMIT statuses are patched and the stream's counters are folded into
// the processor's. Statuses, counters and the peak-buffer gauge are stable
// once Close returns. Idempotent.
func (ms *mergeStream) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	ms.cancel(errStreamClosed)
	<-ms.fanDone
	ms.releasePage()
	stats := &ms.sess.p.stats
	for i := range ms.runs {
		ms.rowsMoved += int64(ms.runs[i].Moved)
		if ms.runs[i].Fallback {
			stats.fallbacks.Add(1)
		}
	}
	stats.rowsMoved.Add(ms.rowsMoved)
	stats.probeRowsPruned.Add(ms.probePruned.Load())
	stats.semiJoinFallbacks.Add(ms.sjFallbacks.Load())
	stats.raisePeak(ms.peakInflight.Load())
	if ms.stop >= 0 {
		stats.earlyTerminations.Add(1)
		// Early termination: everything after the member that satisfied the
		// limit is reported as cut off by it, whatever its sub-call was
		// doing when the cancel landed — keeping the statuses (and thus the
		// Partial bit) deterministic across timings and pushdown modes.
		for j := ms.stop + 1; j < len(ms.statuses); j++ {
			ms.statuses[j] = MemberStatus{Member: ms.plan.Members[j].D.Name, Ref: ms.plan.Members[j].D.ISIRef,
				ErrClass: "limit", Err: "limit satisfied"}
		}
	}
}

// tally buckets the member statuses; valid once the stream is closed.
func (ms *mergeStream) tally() (answered, degraded int, firstErr error) {
	for i := range ms.statuses {
		st := &ms.statuses[i]
		switch {
		case st.OK():
			answered++
		case st.ErrClass == "limit":
			// Cut off by a satisfied LIMIT: not an answer, not degradation.
		default:
			degraded++
			if firstErr == nil {
				firstErr = errors.New(st.Err)
			}
		}
	}
	return answered, degraded, firstErr
}

// quorumErr applies the degradation policy to a closed stream's tally: the
// statement fails when fewer members than the quorum answered, unless a
// satisfied LIMIT is what stopped the others.
func (ms *mergeStream) quorumErr(coalition string, answered int, firstErr error) error {
	quorum := max(ms.sess.p.minMembersQuorum(), 1)
	if ms.stop >= 0 || answered >= quorum {
		return nil
	}
	if firstErr == nil {
		firstErr = errors.New("no member answered")
	}
	return fmt.Errorf("query: coalition %s: %d of %d member(s) answered, need %d: %w",
		coalition, answered, len(ms.statuses), quorum, firstErr)
}

// mergedColumns names the merged result's columns from the first member that
// answered. Valid after Close.
func (ms *mergeStream) mergedColumns() []string {
	for i := range ms.runs {
		if ms.runs[i].Column != "" && ms.statuses[i].OK() {
			return []string{"source", ms.runs[i].Column}
		}
	}
	return nil
}

// runMember is the merge's member call: it runs one member's fragment
// (runFragment) and streams its pages into the merge. The unbuffered send
// between fetches is what propagates the coordinator's pace back to the
// wire, one page ahead. (The streaming-off reference mode asks for batch 0:
// the whole result in the opening round trip.)
func (s *Session) runMember(ctx context.Context, ms *mergeStream, i int, sp *trace.Span) error {
	mp := &ms.plan.Members[i]
	sp.SetAttr("engine", mp.D.Engine)
	sp.SetAttrInt("pushed", mp.Exec.Pushed)
	sp.SetAttrInt("compensated", len(mp.Exec.Residual))
	if mp.Exec.LimitPushed {
		sp.SetAttr("limit", "pushed")
	}
	batch := 0
	if s.p.streamingOn() {
		batch = s.p.mergeBufRows()
		sp.SetAttr("stream", "cursor")
	} else {
		sp.SetAttr("stream", "materialized")
	}
	conn, err := s.p.openSource(s, mp.D)
	if err != nil {
		return err
	}
	defer conn.Close()
	ex := &mp.Exec
	if ms.overrides != nil && ms.overrides[i] != nil {
		ex = ms.overrides[i]
		sp.SetAttr("semijoin", "keys pushed")
	}
	run := &ms.runs[i]
	err = s.runFragment(ctx, conn, mp, ex, batch, run, func(b *gateway.Batch) bool {
		if ms.filter != nil {
			// A row whose key is not in the build side (or is a Bloom false
			// positive the exact set rejects) is dropped here, before it can
			// occupy a merge page or count toward LIMIT.
			n := b.Len()
			b.Keep(func(k int) bool { return ms.filter.admit(b.Value(0, k)) })
			ms.probePruned.Add(int64(n - b.Len()))
			if b.Len() == 0 {
				b.Release()
				return true
			}
		}
		held := ms.inflight.Add(int64(b.Len()))
		for {
			p := ms.peakInflight.Load()
			if held <= p || ms.peakInflight.CompareAndSwap(p, held) {
				break
			}
		}
		select {
		case ms.chans[i] <- b:
			return true
		case <-ms.ctx.Done():
			// The query itself succeeded; the merge just stopped taking
			// rows (limit satisfied downstream). Not a member failure.
			ms.inflight.Add(-int64(b.Len()))
			b.Release()
			return false
		}
	})
	sp.SetAttrInt("pages", run.Pages)
	sp.SetAttrInt("rows", run.Moved)
	sp.SetAttrInt("bytes", run.Bytes)
	if run.Fallback {
		sp.SetAttr("fallback", "bare")
		if ex.InPushed {
			ms.sjFallbacks.Add(1)
		}
	}
	return err
}
