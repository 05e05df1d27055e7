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
// ones doubling up to gateway.MaxPageRows. Backpressure reaches the wire
// within a row budget: a member keeps the pages the merge is not ready for in
// a small stash and fetches its next page while the rows it holds (stashed,
// plus the last page handed over) are at most gateway.MaxPageRows. Members
// the merge has not reached yet so page ahead of it, their round trips
// overlapping instead of queueing, and the coordinator holds at most two
// pages' worth of rows per member, whatever the scan size. Under a LIMIT a
// member fetches page n+1 only once the merge has taken page n, since rows
// fetched past the cut are wasted. The merge hands its consumer whole pages
// too, and does its bookkeeping once per page: the page that reaches a
// statement LIMIT is cut there and terminates the fan-out early — the
// remaining members' sub-calls are cancelled (closing their server-side
// cursors) and their statuses report ErrClass "limit": satisfied, not
// degraded. Rows reads in place from the page it is given.

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
// calls nextPage to receive the members' pages in member order, reads the
// first n rows of each in place, and calls Close to release the fan-out
// (cancelling outstanding sub-calls and their cursors). It is the engine
// under both Session.Execute (which drains it) and Session.Stream (whose
// Rows indexes into its page). Not safe for concurrent use.
type mergeStream struct {
	sess     *Session
	plan     *queryPlan
	chans    []chan *gateway.Batch // pages of compensated rows; column 0 is the result value
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
	n         int            // rows of page to read: all of them, or fewer where the LIMIT cut it
	delivered []int          // rows taken per member, counted a page at a time
	progress  int            // rows counted toward the LIMIT (failed members refunded)
	stop      int            // member index that satisfied the LIMIT (-1: none)
	eof       bool
	closed    bool

	rowsMoved   int64        // rows fetched from members, pre-compensation; summed from runs at Close
	probePruned atomic.Int64 // rows rejected by the semi-join key filter
	sjFallbacks atomic.Int64 // bare retries of fragments that carried a key set

	// inflight counts the rows of the pages the merge holds (pulled from a
	// member's cursor and compensated, not yet drained): the pages each
	// member has stashed plus the one being read; peakInflight is its
	// high-water mark. It never exceeds members x 2 x gateway.MaxPageRows,
	// whatever the scan size.
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
		ms.chans[i] = make(chan *gateway.Batch)
	}
	mergeCtx, cancel := context.WithCancelCause(ctx)
	ms.cancel = cancel
	ms.ctx = mergeCtx
	ms.fan = memberFan{span: "query.member:", sess: s, layer: "data", what: "member ",
		call: func(ctx context.Context, i int, sp *trace.Span) error { return s.runMember(ctx, ms, i, sp) }}
	s.p.workers.run(func() {
		defer close(ms.fanDone)
		// A member's channel closes after callMember returns, when its status
		// is final — which is what lets Next read the status race-free.
		s.p.fanOut(mergeCtx, n, func(i int) {
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
	})
	return ms
}

// nextPage releases the page the consumer has read and takes the next one
// in member order, cut at the LIMIT (n), its rows counted as delivered;
// false once the merge is exhausted or the LIMIT satisfied. A member's
// status is final by the time the merge moves past its channel, which is
// what makes the refund below — and reading statuses after Close — race-free.
func (ms *mergeStream) nextPage() bool {
	ms.releasePage()
	if ms.eof || ms.closed {
		return false
	}
	for ; ms.cur < len(ms.chans); ms.cur++ {
		b, open := <-ms.chans[ms.cur]
		if !open {
			if !ms.statuses[ms.cur].OK() {
				// A member that failed mid-stream delivered rows a
				// materialized merge would have dropped with it, so refund
				// them from the LIMIT progress; the drain side drops the
				// rows themselves by provenance.
				ms.progress -= ms.delivered[ms.cur]
			}
			continue
		}
		ms.page, ms.n = b, b.Len()
		if ms.limit > 0 && ms.progress+ms.n >= ms.limit {
			ms.n = ms.limit - ms.progress
			ms.stop, ms.eof = ms.cur, true
			ms.cancel(errLimitSatisfied) // release the members still running or queued
		}
		ms.delivered[ms.cur] += ms.n
		ms.progress += ms.n
		return true
	}
	ms.eof = true
	return false
}

// releasePage returns the page being read to the pool.
func (ms *mergeStream) releasePage() {
	if ms.page != nil {
		ms.inflight.Add(-int64(ms.page.Len()))
		ms.page.Release()
		ms.page, ms.n = nil, 0
	}
}

// drain consumes the stream to its end and closes it, handing add each page
// with the n rows of it to read and its member m (first: m's first page). Members are read one after another, so once the merge has
// moved past a member that failed mid-stream, and before any later member's
// page is added, drop is called to take back what add built from that
// member's pages: a materialized merge never sees a failed member's rows.
func (ms *mergeStream) drain(add func(b *gateway.Batch, n, m int, first bool), drop func()) {
	from := -1
	settle := func() {
		if from >= 0 && !ms.statuses[from].OK() {
			drop()
		}
	}
	for ms.nextPage() {
		first := ms.cur != from
		if first {
			settle() // from's status is final: the merge has moved past its channel
			from = ms.cur
		}
		add(ms.page, ms.n, ms.cur, first)
	}
	ms.Close()
	settle()
}

// drainAll drains the stream into the [source, value] rows of the members
// that answered, cut from one slab per page, since the caller keeps them all.
func (ms *mergeStream) drainAll() [][]idl.Any {
	var rows [][]idl.Any
	var src idl.Any
	start := 0 // the first row of the member being read
	ms.drain(func(b *gateway.Batch, n, m int, first bool) {
		if first {
			start = len(rows)
			src = idl.String(ms.plan.Members[m].D.Name)
		}
		slab := make([]idl.Any, 2*n)
		for i := 0; i < 2*n; i += 2 {
			slab[i], slab[i+1] = src, b.Value(0, i/2)
			rows = append(rows, slab[i:i+2:i+2])
		}
	}, func() { rows = rows[:start] })
	return rows
}

// drainKeys drains the stream into the key set (appendKey) of the values of
// the members that answered, each key with the first value that had it: what
// drainAll's rows would give, without building them.
func (ms *mergeStream) drainKeys() map[string]idl.Any {
	keys := make(map[string]idl.Any)
	var added []string // the keys the member being read added
	ms.drain(func(b *gateway.Batch, n, _ int, first bool) {
		if first {
			added = added[:0]
		}
		for i := 0; i < n; i++ {
			if k, ok := addKey(keys, b.Value(0, i)); ok {
				added = append(added, k)
			}
		}
	}, func() {
		for _, k := range added {
			delete(keys, k)
		}
	})
	return keys
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
// (runFragment) and streams its pages into the merge. Waiting to hand a page
// over once its row budget is spent is what propagates the coordinator's
// pace back to the wire. (The streaming-off reference mode asks for batch 0:
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
	// The pages fetched but not yet handed over wait in stash, oldest first.
	// held counts their rows plus the last page handed over, which the merge
	// may still be reading: it takes a page only after releasing the one
	// before, so the count is exact. Without a LIMIT the member fetches again
	// while held <= budget, so it holds at most 2 x MaxPageRows; under one it
	// fetches only once the merge has taken everything, moving no extra rows.
	// Sixteen pages cover the doubling from a first page of one row up to
	// the budget; a full stash waits like a spent budget, so pages thinned
	// by filters cannot grow it.
	var stash [16]*gateway.Batch
	pages, held, last := 0, 0, 0
	budget := gateway.MaxPageRows
	if ms.limit > 0 {
		budget = -1
	}
	// handOver passes stashed pages to the merge: those it takes without
	// waiting, then, waiting, as many as bring held within budget and leave
	// stash room. false: the merge stopped taking rows (limit satisfied
	// downstream, stream closed), and the stash is back in the pool.
	handOver := func() bool {
		for pages > 0 {
			b, rows := stash[0], stash[0].Len()
			select {
			case ms.chans[i] <- b:
			default:
				if held <= budget && pages < len(stash) {
					return true // fetch the next page meanwhile
				}
				select {
				case ms.chans[i] <- b:
				case <-ms.ctx.Done():
					for _, pg := range stash[:pages] {
						ms.inflight.Add(-int64(pg.Len()))
						pg.Release()
					}
					pages = 0
					return false
				}
			}
			pages--
			copy(stash[:pages], stash[1:pages+1])
			stash[pages] = nil
			held -= last
			last = rows
		}
		return true
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
		inflight := ms.inflight.Add(int64(b.Len()))
		for {
			p := ms.peakInflight.Load()
			if inflight <= p || ms.peakInflight.CompareAndSwap(p, inflight) {
				break
			}
		}
		stash[pages] = b
		pages++
		held += b.Len()
		return handOver()
	})
	// What the member fetched reaches the merge before its status does, even
	// when the member failed mid-stream: the merge drops it by provenance.
	budget = -1
	handOver()
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
