package simtest

import (
	"context"
	"strings"

	"repro/internal/codb"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/trace"
)

// The invariant checkers run after every workload step. Each reports through
// the step's fail(invariant, format, args...) sink so violations carry the
// step and operation that exposed them.

// checkTraceContinuity asserts that every span recorded during the step —
// client stages, per-member fan-out spans, and the server-side spans decoded
// from the propagated tracing service context on every hop — belongs to the
// step's root trace. A span with a different trace ID means propagation broke
// somewhere between ORBs.
func checkTraceContinuity(op Op, spans []trace.SpanRecord, rootTrace string, fail func(string, string, ...any)) {
	const inv = "trace-continuity"
	if len(spans) == 0 {
		fail(inv, "no spans recorded for %s", op)
		return
	}
	for _, sp := range spans {
		if sp.Trace != rootTrace {
			fail(inv, "span %s has trace %s, step root is %s", sp.Name, sp.Trace, rootTrace)
		}
	}
}

// checkPartialAccounting asserts the Response.Partial contract: the flag is
// set if and only if some member status is degraded (failed or served stale),
// so a partial answer always comes with complete per-member accounting of who
// was missed and why, and a full answer is never flagged. Members cut off by
// a satisfied LIMIT (ErrClass "limit") are healthy: the statement got every
// row it asked for.
func checkPartialAccounting(op Op, o *Oracle, resp *query.Response, fail func(string, string, ...any)) {
	const inv = "partial-accounting"
	degraded := 0
	for _, m := range resp.Members {
		if (!m.OK() && m.ErrClass != "limit") || m.Stale {
			degraded++
		}
	}
	if resp.Partial && degraded == 0 {
		fail(inv, "Partial set but every member status is healthy (%d statuses)", len(resp.Members))
	}
	if !resp.Partial && degraded > 0 {
		fail(inv, "Partial unset but %d of %d member statuses degraded", degraded, len(resp.Members))
	}
	for _, m := range resp.Members {
		if m.Member == "" {
			fail(inv, "member status without a member name: %+v", m)
		}
		if !m.OK() && m.Err == "" {
			fail(inv, "member %s failed (%s) without an error message", m.Member, m.ErrClass)
		}
	}
}

// checkBreakerLegality asserts every circuit breaker is in a legal state.
// The model federation configures no breaker policy, so its snapshots must
// stay empty; the checker still validates the general state machine so it can
// guard breaker-enabled scenarios too.
func checkBreakerLegality(fed *Fed, fail func(string, string, ...any)) {
	const inv = "breaker-legality"
	for _, n := range fed.Nodes {
		for addr, st := range n.ORB.BreakerSnapshot() {
			switch st.State {
			case orb.BreakerClosed, orb.BreakerOpen, orb.BreakerHalfOpen:
			default:
				fail(inv, "%s breaker for %s in unknown state %q", n.Name, addr, st.State)
			}
			if st.Failures < 0 {
				fail(inv, "%s breaker for %s has negative failure count %d", n.Name, addr, st.Failures)
			}
			if st.State != orb.BreakerClosed {
				fail(inv, "%s breaker for %s is %s with no breaker policy configured", n.Name, addr, st.State)
			}
		}
	}
}

// checkCursorsReleased asserts a finished statement left nothing behind on
// any member's ISI servant: no open cursor (a drained, limited, cancelled or
// failed stream closes every cursor it opened before the statement returns)
// and so no rows held for one. A cursor left open would keep an engine scan
// resumable, and the rows of a plan that cannot stream in memory, until the
// idle reaper got to it.
func checkCursorsReleased(fed *Fed, fail func(string, string, ...any)) {
	const inv = "cursors-released"
	for _, n := range fed.Nodes {
		if st := n.Core.CursorStats(); st.Open != 0 || st.RowsHeld != 0 {
			fail(inv, "%s holds %d open cursor(s) and %d row(s) for them", n.Name, st.Open, st.RowsHeld)
		}
	}
}

// checkCacheCoherence asserts the metadata layer never serves membership
// older than what it claims: for every coalition a node currently belongs
// to, (a) the node's co-database replica matches the oracle's membership
// exactly, and (b) a version-verified metadata-cache read — the same
// key/version discipline the query processor uses for its in-process
// co-database — returns that same membership, proving no cache entry
// survives a co-database version bump.
func checkCacheCoherence(fed *Fed, o *Oracle, fail func(string, string, ...any)) {
	const inv = "cache-coherence"
	ctx := context.Background()
	for _, n := range fed.Nodes {
		key, err := instancesKeyFor(n)
		if err != nil {
			fail(inv, "%s: cannot derive cache key: %v", n.Name, err)
			continue
		}
		for _, c := range o.CoalitionNames() {
			if !o.Member(c, n.Idx) {
				continue
			}
			var want []string
			for _, m := range o.MembersOf(c) {
				want = append(want, o.NodeName(m))
			}
			direct, err := n.Core.CoDB.Members(c)
			if err != nil {
				fail(inv, "%s co-database lost coalition %s: %v", n.Name, c, err)
				continue
			}
			if got := descriptorNames(direct); got != strings.Join(want, ",") {
				fail(inv, "%s replica of %s = [%s], oracle says [%s]", n.Name, c, got, strings.Join(want, ","))
				continue
			}
			cd := n.Core.CoDB
			v, _, err := n.Core.MDCache.Get(ctx, key+strings.ToLower(c), mdcache.Request{
				Fetch:     func(ctx context.Context) (any, error) { return cd.Members(c) },
				Version:   func(context.Context) (uint64, error) { return cd.Version(), nil },
				VerifyHit: true,
			})
			if err != nil {
				fail(inv, "%s cached members of %s: %v", n.Name, c, err)
				continue
			}
			if got := descriptorNames(v.([]*codb.SourceDescriptor)); got != strings.Join(want, ",") {
				fail(inv, "%s cache serves %s members [%s], co-database version says [%s]",
					n.Name, c, got, strings.Join(want, ","))
			}
		}
	}
}

// instancesKeyFor rebuilds the query processor's instances-cache key prefix
// for a node's own co-database ("instances|<addr>/<objkey>|<coalition>").
func instancesKeyFor(n *Node) (string, error) {
	ref, err := n.ORB.ResolveString(n.Core.Descriptor.CoDBRef)
	if err != nil {
		return "", err
	}
	ior := ref.IOR()
	return "instances|" + ior.Addr() + "/" + ior.Key() + "|", nil
}

func descriptorNames(ds []*codb.SourceDescriptor) string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return strings.Join(names, ",")
}
