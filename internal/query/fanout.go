package query

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/orb"
	"repro/internal/trace"
)

// defaultFanOut is the worker-pool width used until SetFanOut says otherwise.
// Member calls are dominated by IIOP round trips (I/O, not CPU), so the pool
// is wider than the core count.
func defaultFanOut() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// fanOutCtx runs fn(0..n-1) on at most workers goroutines and returns when
// all calls have finished. Callers write results into index-addressed
// slices, which keeps result ordering deterministic regardless of completion
// order. workers <= 0 selects the default width; workers == 1 degenerates to
// a plain serial loop. Once the context ends, no further indices are handed
// out — in-flight calls finish (they observe the same context through their
// own plumbing), but undispatched work is skipped. Callers detect skipped
// indices by their untouched result slots.
func fanOutCtx(ctx context.Context, n, workers int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = defaultFanOut()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// A select between a ready worker and an ended context picks at
		// random, so the context is checked before every hand-out.
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// The member-call primitive. Every call the query layer makes to another
// member of the federation — a coalition member's fragment, a discovery
// peer's probe, a shard representative's relay, a join's advertisement —
// goes through callMember, usually by way of callMembers, so all of them
// share one shape: a span named after the member, the MemberTimeout budget,
// ORB call statistics, and a MemberStatus filled from the outcome.

// notDispatched is the status every member starts a fan-out with: it stands
// unless the member's call actually runs (the context may end first).
func notDispatched(member, ref string) MemberStatus {
	return MemberStatus{Member: member, Ref: ref, ErrClass: "skipped", Err: "not dispatched"}
}

// memberFan describes one kind of member call.
type memberFan struct {
	// span is the span-name prefix, completed by the member's name.
	span string
	// budget multiplies MemberTimeout for calls that cover several members
	// (a relay probes a whole shard); 0 means one member's worth.
	budget int
	// sess, when set, has failed calls reported on its layer trace as
	// "<what><member> failed (<class>): <error>".
	sess        *Session
	layer, what string
	// call does the work for statuses[i] under the member's context and
	// span. What it returns decides the status; annotations only the caller
	// understands (cache outcome, rows) it records itself.
	call func(ctx context.Context, i int, sp *trace.Span) error
}

// callMembers runs f.call for every status on the processor's worker pool
// and returns when all calls have finished. Statuses must start as
// notDispatched: members the pool never reaches because ctx ended keep it.
func (p *Processor) callMembers(ctx context.Context, statuses []MemberStatus, f *memberFan) {
	fanOutCtx(ctx, len(statuses), p.fanOutWidth(), func(i int) {
		p.callMember(ctx, &statuses[i], i, f)
	})
}

// callSome is callMembers restricted to the statuses listed in idx.
func (p *Processor) callSome(ctx context.Context, statuses []MemberStatus, idx []int, f *memberFan) {
	fanOutCtx(ctx, len(idx), p.fanOutWidth(), func(j int) {
		p.callMember(ctx, &statuses[idx[j]], idx[j], f)
	})
}

// callMember makes one member call and records its outcome in st: latency,
// transport attempts (transparent retries included), error class and
// message. The member's context — and with it the MemberTimeout timer — is
// released when the call returns. A call that fails because the fan-out's
// owner cancelled it on purpose (mergeCancelled: limit satisfied, stream
// closed) did its part and is not a failure. The returned error is the one
// recorded.
func (p *Processor) callMember(ctx context.Context, st *MemberStatus, i int, f *memberFan) error {
	mctx, sp := trace.StartSpan(ctx, f.span+st.Member)
	if mt := p.memberTimeout(); mt > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(mctx, mt*time.Duration(max(f.budget, 1)))
		defer cancel()
	}
	mctx, cs := orb.WithCallStats(mctx)
	start := time.Now()
	err := f.call(mctx, i, sp)
	st.Latency = time.Since(start)
	st.Attempts = int(cs.Attempts.Load())
	if err != nil && mergeCancelled(ctx) {
		err = nil
	}
	st.ErrClass, st.Err = classifyErr(err), ""
	if err != nil {
		st.Err = err.Error()
		if f.sess != nil {
			f.sess.tracef(f.layer, "%s%s failed (%s): %v", f.what, st.Member, st.ErrClass, err)
		}
	}
	sp.End(err)
	return err
}
