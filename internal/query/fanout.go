package query

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/orb"
	"repro/internal/trace"
)

// defaultFanOut is the worker-pool width used until SetFanOut says otherwise.
// Member calls are dominated by IIOP round trips (I/O, not CPU), so the pool
// is wider than the core count.
func defaultFanOut() int { return max(2*runtime.GOMAXPROCS(0), 8) }

// fanOut runs fn(0..n-1) on at most the processor's fan-out width of workers
// and returns when all calls have finished. Callers write results into
// index-addressed slices, which keeps result ordering deterministic
// regardless of completion order. A width <= 0 selects the default; a width
// of 1 degenerates to a plain serial loop. Once the context ends, no further
// indices are handed out — in-flight calls finish (they observe the same
// context through their own plumbing), but undispatched work is skipped.
// Callers detect skipped indices by their untouched result slots.
func (p *Processor) fanOut(ctx context.Context, n int, fn func(int)) {
	if n == 0 {
		return
	}
	workers := p.fanOutWidth()
	if workers <= 0 {
		workers = defaultFanOut()
	}
	workers = min(workers, n)
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
	loop := func() {
		defer wg.Done()
		for i := range idx {
			fn(i)
		}
	}
	for w := 0; w < workers; w++ {
		p.workers.run(loop)
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

// Warm fan-out workers. Fan-out worker loops (and a merge's dispatch loop)
// run on parked workers, goroutines that ran an earlier loop, when any are
// idle, so a member call runs on a stack an earlier call already grew instead
// of growing a new one a copy at a time. At most maxParkedWorkers (four
// statements' worth of default-width fan-outs) park at once, and one parked
// for idleWorkerTTL exits: far longer than a busy session's gap between
// statements, well inside the 2 s the leak tests wait.
const (
	maxParkedWorkers = 32
	idleWorkerTTL    = 500 * time.Millisecond
)

// workerPool lists a processor's parked workers by their hand-off channels.
// The last parked is handed the next loop, so the least used ones idle out.
type workerPool struct {
	mu     sync.Mutex
	parked []chan func()
}

// run runs loop on a parked worker, or on a new goroutine when none is.
func (wp *workerPool) run(loop func()) {
	wp.mu.Lock()
	if n := len(wp.parked); n > 0 {
		w := wp.parked[n-1]
		wp.parked = wp.parked[:n-1]
		wp.mu.Unlock()
		w <- loop
		return
	}
	wp.mu.Unlock()
	go wp.worker(loop)
}

// worker runs loop, then parks for the next one unless maxParkedWorkers are
// parked already, and exits once it has been parked for idleWorkerTTL.
func (wp *workerPool) worker(loop func()) {
	next := make(chan func(), 1) // a hand-off never waits for the worker
	idle := time.NewTimer(idleWorkerTTL)
	for {
		loop()
		wp.mu.Lock()
		if len(wp.parked) >= maxParkedWorkers {
			wp.mu.Unlock()
			return
		}
		wp.parked = append(wp.parked, next)
		wp.mu.Unlock()
		idle.Reset(idleWorkerTTL)
		select {
		case loop = <-next:
		case <-idle.C:
			wp.mu.Lock()
			if i := slices.Index(wp.parked, next); i >= 0 {
				wp.parked = slices.Delete(wp.parked, i, i+1)
				wp.mu.Unlock()
				return
			}
			wp.mu.Unlock()
			loop = <-next // taken off the list by a hand-off under way
		}
	}
}

// The member-call primitive. Every call the query layer makes to another
// member of the federation — a coalition member's fragment, a discovery
// peer's probe, a join's advertisement — goes through callMember, usually by
// way of callMembers, so all of them share one shape: a span named after the
// member, the MemberTimeout budget, ORB call statistics, and a MemberStatus
// filled from the outcome.

// notDispatched is the status every member starts a fan-out with: it stands
// unless the member's call actually runs (the context may end first).
func notDispatched(member, ref string) MemberStatus {
	return MemberStatus{Member: member, Ref: ref, ErrClass: "skipped", Err: "not dispatched"}
}

// memberFan describes one kind of member call.
type memberFan struct {
	// span is the span-name prefix, completed by the member's name.
	span string
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
	p.fanOut(ctx, len(statuses), func(i int) {
		p.callMember(ctx, &statuses[i], i, f)
	})
}

// callSome is callMembers restricted to the statuses listed in idx.
func (p *Processor) callSome(ctx context.Context, statuses []MemberStatus, idx []int, f *memberFan) {
	p.fanOut(ctx, len(idx), func(j int) {
		p.callMember(ctx, &statuses[idx[j]], idx[j], f)
	})
}

// callMember makes one member call and records its outcome in st: latency,
// transport attempts (transparent retries included), error class and
// message. The member's context — and with it the MemberTimeout timer — is
// released when the call returns. A call that fails because the fan-out's
// owner cancelled it on purpose (mergeCancelled: limit satisfied, stream
// closed) did its part and is not a failure.
func (p *Processor) callMember(ctx context.Context, st *MemberStatus, i int, f *memberFan) {
	mctx, sp := trace.StartSpan(ctx, f.span+st.Member)
	if mt := p.memberTimeout(); mt > 0 {
		var cancel context.CancelFunc
		mctx, cancel = context.WithTimeout(mctx, mt)
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
}
