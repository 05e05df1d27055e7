package simtest

import (
	"strings"

	"repro/internal/codb"
	"repro/internal/gossip"
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
// set if and only if some member failed, so a partial answer always comes
// with complete per-member accounting of who was missed and why, and a full
// answer is never flagged. Members cut off by a satisfied LIMIT (ErrClass
// "limit") are healthy: the statement got every row it asked for.
func checkPartialAccounting(op Op, o *Oracle, resp *query.Response, fail func(string, string, ...any)) {
	const inv = "partial-accounting"
	degraded := 0
	for _, m := range resp.Members {
		if !m.OK() && m.ErrClass != "limit" {
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

// checkCacheCoherence asserts the metadata cache's freshness rule: a cached
// answer is never older than the reader's version for its source. For every
// node it first checks that the node's co-database replica of each coalition
// it belongs to matches the oracle. Then, for every source — the node's own
// co-database, whose version is CoDatabase.Version(), and every peer, whose
// version is the one the node's gossip store holds — it asks the node's cache
// what it would serve under that version for the source's coalition list,
// memberships and member lists. Whenever the reader's version is the source's
// current one, that answer must equal what the source's co-database says now.
// A store still behind the source may serve the older answer; how far behind
// is TestBoundedStalenessAcrossLinkedCoalitions's business.
func checkCacheCoherence(fed *Fed, o *Oracle, fail func(string, string, ...any)) {
	const inv = "cache-coherence"
	for _, n := range fed.Nodes {
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
			}
		}
		store := n.Core.Gossip.Store()
		for _, m := range fed.Nodes {
			cd := m.Core.CoDB
			src := gossip.Source(m.Core.Descriptor.CoDBRef)
			ver, ok := cd.Version(), true
			if m != n {
				ver, ok = store.SourceVersion(src)
			}
			if !ok || ver != cd.Version() {
				continue
			}
			served := func(family, arg, now string, names func(any) string) {
				v, ok := n.Core.MDCache.Peek(src+"|"+family+"|"+strings.ToLower(arg), ver)
				if ok && names(v) != now {
					fail(inv, "%s serves %s's %s %s [%s] at version %d, the co-database says [%s]",
						n.Name, m.Name, family, arg, names(v), ver, now)
				}
			}
			list := func(v any) string { return strings.Join(v.([]string), ",") }
			served("coalitions", "", strings.Join(cd.Coalitions(), ","), list)
			served("memberof", "", strings.Join(cd.MemberOf(), ","), list)
			for _, c := range cd.Coalitions() {
				members, err := cd.Members(c)
				if err != nil {
					continue
				}
				served("instances", c, descriptorNames(members), func(v any) string {
					return descriptorNames(v.([]*codb.SourceDescriptor))
				})
			}
		}
	}
}

func descriptorNames(ds []*codb.SourceDescriptor) string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return strings.Join(names, ",")
}
