package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/wtl"
)

// Federated semi-join execution. A `SemiJoin` clause restricts a coalition
// function query's answer to the rows whose result value also appears among
// a second coalition query's results — the paper's cross-member correlation,
// planned SkyQuery-style so only join keys (never whole rows) cross the
// coordinator twice:
//
//  1. The planner orders the two sides by estimated predicate selectivity
//     and executes the build side first, collecting its distinct key set.
//  2. Small key sets (<= defaultSemiJoinKeyLimit) are pushed to probe members as
//     a literal IN conjunct, rendered through each member's capability
//     profile; members whose engine has no IN list (mSQL, the OQL engines)
//     are filtered at the coordinator instead, and a member that rejects a
//     pushed IN at run time (metadata drift) falls back to its bare
//     fragment exactly like any other capability rejection.
//  3. Large key sets skip the engine push and compress into a Bloom filter
//     the coordinator tests probe rows against per fragment batch; Bloom
//     hits are always confirmed against the exact key set, so false
//     positives never reach the caller.
//
// In the SetSemiJoin(false) reference mode the same pipeline runs with zero
// pushdown — every probe row crosses the wire and the exact coordinator
// filter does all the work — which is what the differential suite in
// internal/simtest compares against: identical rows, Partial bit and member
// statuses, fewer probe-side rows moved.

// estimatedSelectivity scores a predicate list by shape alone — equality
// binds hardest, LIKE moderately, ranges weakest — so both execution modes
// (and both sides of the differential suite) orient the join identically
// without consulting any data statistics.
func estimatedSelectivity(preds []wtl.Condition) float64 {
	sel := 1.0
	for _, c := range preds {
		switch c.Op {
		case "=":
			sel *= 0.1
		case "LIKE":
			sel *= 0.3
		default:
			sel *= 0.5
		}
	}
	return sel
}

// appendKey appends the string the semi-join keys a result value on to buf.
// All numeric kinds normalize into one space (5, 5.0 and long(5) are the same
// key, matching the engines' cross-kind numeric comparisons); NULL has no key
// — SQL three-valued logic says NULL matches nothing, engine-side IN and
// coordinator filter alike. A lookup as m[string(key)] does not allocate.
func appendKey(buf []byte, v idl.Any) ([]byte, bool) {
	switch v.Kind {
	case idl.KindString:
		return append(append(buf, "s:"...), v.Str...), true
	case idl.KindBool:
		if v.Bool {
			return append(buf, "b:1"...), true
		}
		return append(buf, "b:0"...), true
	case idl.KindOctet, idl.KindShort, idl.KindUShort, idl.KindLong,
		idl.KindULong, idl.KindLongLong, idl.KindULongLong:
		return strconv.AppendInt(append(buf, "n:"...), v.Int, 10), true
	case idl.KindFloat, idl.KindDouble:
		if v.Float == math.Trunc(v.Float) && math.Abs(v.Float) < 1e15 {
			return strconv.AppendInt(append(buf, "n:"...), int64(v.Float), 10), true
		}
		return strconv.AppendFloat(append(buf, "n:"...), v.Float, 'g', -1, 64), true
	}
	return buf, false // NULL and aggregate kinds are never join keys
}

// keyBuf is the stack buffer a key is built in; longer keys spill to the heap.
type keyBuf [64]byte

// semiJoinFilter is the coordinator-side key test applied to every probe row
// (merge.go applies it after residual compensation, before the merge
// window). The exact set is always consulted, so the answer is exact whether
// or not the Bloom prefilter or an engine-side IN push also ran.
type semiJoinFilter struct {
	exact map[string]idl.Any // the build side's key set, read only
	bloom *bloomFilter       // optional prefilter for large key sets
}

func (f *semiJoinFilter) admit(v idl.Any) bool {
	var buf keyBuf
	key, ok := appendKey(buf[:0], v)
	if !ok {
		return false
	}
	if f.bloom != nil && !f.bloom.MayContain(key) {
		return false
	}
	_, hit := f.exact[string(key)]
	return hit
}

// keyLiterals renders a key set as IN-list literals, sorted by canonical key
// so the rendered fragment is deterministic. Only strings and integers ship;
// a set containing any other kind (floats, booleans) reports not-pushable
// and stays a coordinator-side filter — the conservative choice, mirroring
// pushableCond, because a literal one engine reads back differently than the
// coordinator compares would break on/off equivalence.
func keyLiterals(keys map[string]idl.Any) ([]wtl.KeyLiteral, bool) {
	canon := make([]string, 0, len(keys))
	for k := range keys {
		canon = append(canon, k)
	}
	sort.Strings(canon)
	lits := make([]wtl.KeyLiteral, len(canon))
	for i, k := range canon {
		v := keys[k]
		switch v.Kind {
		case idl.KindString:
			lits[i] = wtl.KeyLiteral{Text: v.Str, IsStr: true}
		case idl.KindOctet, idl.KindShort, idl.KindUShort, idl.KindLong,
			idl.KindULong, idl.KindLongLong, idl.KindULongLong:
			lits[i] = wtl.KeyLiteral{Text: strconv.FormatInt(v.Int, 10)}
		default:
			return nil, false
		}
	}
	return lits, true
}

// semiJoinPushdown decides how the build side's key set reaches the probe
// side: engine-side IN lists for capable members below the key limit, a
// coordinator Bloom prefilter above it, or nothing but the exact filter in
// the reference mode or when the keys are unpushable. The returned filter is
// never nil — exactness never depends on the pushdown mode.
func (s *Session) semiJoinPushdown(plan *queryPlan, keys map[string]idl.Any) (*semiJoinFilter, []*fragmentExec) {
	filter := &semiJoinFilter{exact: keys}
	if !s.p.semiJoinOn() || len(keys) == 0 {
		return filter, nil
	}
	if len(keys) > s.p.semiJoinKeyLimit() {
		bf := newBloomFilter(len(keys), semiJoinBloomBits)
		for k := range keys {
			bf.Add(k)
		}
		filter.bloom = bf
		s.p.stats.bloomPushed.Add(1)
		return filter, nil
	}
	lits, pushable := keyLiterals(keys)
	if !pushable {
		return filter, nil
	}
	var overrides []*fragmentExec
	for i := range plan.Members {
		mp := &plan.Members[i]
		if !mp.InListOK {
			continue
		}
		if overrides == nil {
			overrides = make([]*fragmentExec, len(plan.Members))
		}
		overrides[i] = mp.Exec.withInKeys(mp.Fn.ResultColumn, lits)
		s.p.stats.keysPushed.Add(int64(len(lits)))
		s.tracef("data", "semi-join pushed %d key(s) to %s: %s", len(lits), mp.D.Name, overrides[i].Native)
	}
	return filter, overrides
}

// sideResult is one fully drained side of a semi-join: its distinct key set,
// per-member outcome, and (when kept) its merged rows.
type sideResult struct {
	rows     [][]idl.Any        // delivered [source, value] rows of OK members
	keys     map[string]idl.Any // canonical key -> representative value
	statuses []MemberStatus
	cols     []string
	moved    int64
	degraded int
}

// addKey adds v's key to keys, with v as its representative, unless v has no
// key or its key is there already; it returns the key it added.
func addKey(keys map[string]idl.Any, v idl.Any) (string, bool) {
	var buf keyBuf
	key, ok := appendKey(buf[:0], v)
	if !ok {
		return "", false
	}
	if _, dup := keys[string(key)]; dup {
		return "", false
	}
	k := string(key)
	keys[k] = v
	return k, true
}

// drainSide executes one side of the join to completion through the
// streaming merge (filter and overrides apply when the side is a probe) and
// enforces the member quorum — a side that cannot answer fails the whole
// statement, exactly as the same query would fail standalone. A side whose
// rows are not kept drains to its key set alone (drainKeys). Either way the
// keys of a member that failed mid-stream are dropped, so the key set is as
// deterministic as a materialized merge's answer.
func (s *Session) drainSide(ctx context.Context, plan *queryPlan, filter *semiJoinFilter, overrides []*fragmentExec, keepRows bool) (*sideResult, error) {
	ms := s.newMergeStream(ctx, plan, 0, filter, overrides)
	res := &sideResult{}
	if keepRows {
		res.rows = ms.drainAll()
		res.keys = make(map[string]idl.Any)
		for _, row := range res.rows {
			addKey(res.keys, row[1])
		}
	} else {
		res.keys = ms.drainKeys()
	}
	res.statuses, res.cols, res.moved = ms.statuses, ms.mergedColumns(), ms.rowsMoved
	answered, degraded, firstErr := ms.tally()
	if err := ms.quorumErr(plan.Coalition, answered, firstErr); err != nil {
		return nil, err
	}
	res.degraded = degraded
	return res, nil
}

// streamSemiJoin plans and runs a coalition semi-join. The usual
// orientation — the join clause is the more selective side — executes the
// clause as the build and returns a live stream over the outer side, so the
// probe composes with Session.Stream, LIMIT early termination and mid-stream
// member death like any other coalition query. When the outer side estimates
// more selective, the sides swap: the outer materializes first (the swap
// exists to move fewer rows overall, and an outer LIMIT cannot be applied
// until the join filter has run), the clause side is probed with the outer's
// keys, and the outer rows whose keys survive are served materialized.
func (s *Session) streamSemiJoin(ctx context.Context, q *wtl.FuncQuery) (*Rows, error) {
	j := q.Join
	s.p.stats.semiJoins.Add(1)

	outerQ := *q
	outerQ.Join = nil
	outerQ.Limit = 0
	innerQ := &wtl.FuncQuery{Function: j.Function, ArgCol: j.ArgCol,
		Preds: j.Preds, Source: j.Source, OnCoalition: true}
	outerPlan, err := s.resolveCoalitionPlan(ctx, &outerQ)
	if err != nil {
		return nil, err
	}
	innerPlan, err := s.resolveCoalitionPlan(ctx, innerQ)
	if err != nil {
		return nil, err
	}

	if estimatedSelectivity(q.Preds) < estimatedSelectivity(j.Preds) {
		return s.semiJoinSwapped(ctx, q, outerPlan, innerPlan)
	}

	build, err := s.drainSide(ctx, innerPlan, nil, nil, false)
	if err != nil {
		return nil, fmt.Errorf("query: semi-join build side: %w", err)
	}
	s.tracef("query", "semi-join build side %s yielded %d distinct key(s)", j.Source, len(build.keys))
	filter, overrides := s.semiJoinPushdown(outerPlan, build.keys)
	ms := s.newMergeStream(ctx, outerPlan, q.Limit, filter, overrides)
	return &Rows{sess: s, stmt: q, plan: outerPlan, ms: ms,
		buildStatuses: build.statuses, buildMoved: build.moved, buildDegraded: build.degraded}, nil
}

// semiJoinSwapped is the reversed orientation: outer builds, the join clause
// side probes, and the answer is the outer's materialized rows filtered by
// the keys that survived the probe.
func (s *Session) semiJoinSwapped(ctx context.Context, q *wtl.FuncQuery, outerPlan, innerPlan *queryPlan) (*Rows, error) {
	outer, err := s.drainSide(ctx, outerPlan, nil, nil, true)
	if err != nil {
		return nil, fmt.Errorf("query: semi-join build side: %w", err)
	}
	s.tracef("query", "semi-join (swapped) build side %s yielded %d distinct key(s)", q.Source, len(outer.keys))
	filter, overrides := s.semiJoinPushdown(innerPlan, outer.keys)
	inner, err := s.drainSide(ctx, innerPlan, filter, overrides, false)
	if err != nil {
		return nil, err
	}
	// inner.keys is already the intersection: the filter admitted only inner
	// rows whose key the outer produced.
	merged := &gateway.Result{Columns: outer.cols}
	var buf keyBuf
	for _, row := range outer.rows {
		key, ok := appendKey(buf[:0], row[1])
		if !ok {
			continue
		}
		if _, hit := inner.keys[string(key)]; !hit {
			continue
		}
		merged.Rows = append(merged.Rows, row)
		if q.Limit > 0 && len(merged.Rows) >= q.Limit {
			break
		}
	}
	s.p.stats.rowsDelivered.Add(int64(len(merged.Rows)))

	members := append(append([]MemberStatus(nil), outer.statuses...), inner.statuses...)
	resp := coalitionResponse(q, outerPlan, merged, members, len(outer.statuses)-outer.degraded,
		outer.degraded+inner.degraded > 0, outer.moved+inner.moved)
	return &Rows{sess: s, stmt: q, resp: resp, cols: merged.Columns}, nil
}
