package main

import (
	"repro/internal/wtl"
)

// counters reads every layer's own counters through public accessors and
// sums them over the 13 nodes and three ORBs. All values are cumulative
// except the two high-water marks; layer metrics are deltas over the traced
// blocks divided by ops.
type counters map[string]float64

func (fx *fixture) counters() counters {
	c := counters{}
	for _, p := range fedProducts {
		st := fx.fed.ORB(p).Stats.Snapshot()
		c["orb.calls"] += float64(st.IIOPCalls + st.ColocatedCalls)
		c["orb.bytes"] += float64(st.BytesSent) // every byte is sent once and received once
		c["orb.fragments"] += float64(st.FragmentsSent)
		c["orb.max_in_flight"] = max(c["orb.max_in_flight"], float64(st.MaxInFlight))
	}
	for _, n := range fx.nodes {
		md := n.MDCache.Snapshot()
		c["mdcache.hits"] += float64(md.Hits)
		c["mdcache.misses"] += float64(md.Misses)
		c["mdcache.stale"] += float64(md.StaleServed)
		c["mdcache.evictions"] += float64(md.Evictions)

		ps := n.Processor.PlannerStats()
		c["query.plans"] += float64(ps.Plans)
		c["query.plan_hits"] += float64(ps.PlanCacheHits)
		c["query.pushed"] += float64(ps.FragmentsPushed)
		c["query.compensated"] += float64(ps.FragmentsCompensated)
		c["query.early_stops"] += float64(ps.EarlyTerminations)
		c["query.fallbacks"] += float64(ps.Fallbacks + ps.SemiJoinFallbacks)
		c["query.rows_moved"] += float64(ps.RowsMoved)
		c["query.rows_delivered"] += float64(ps.RowsDelivered)
		c["query.semijoin_keys"] += float64(ps.KeysPushed)
		c["query.probe_rows_pruned"] += float64(ps.ProbeRowsPruned)
		c["query.peak_merge_rows"] = max(c["query.peak_merge_rows"], float64(ps.PeakMergeBuffered))

		cs := n.CursorStats()
		c["cursor.opened"] += float64(cs.Opened)

		if n.RelDB != nil {
			pc := n.RelDB.PlanCacheStats()
			c["relational.plan_hits"] += float64(pc.Hits)
			c["relational.plan_misses"] += float64(pc.Misses)
		}
		if n.Gossip != nil {
			c["gossip.msgs"] += float64(n.Gossip.Messages())
		}
	}
	pool := wtl.PoolStats()
	c["wtl.pool_hits"] = float64(pool.Hits)
	c["wtl.pool_misses"] = float64(pool.Misses)
	return c
}

// since subtracts an earlier reading; high-water marks keep the later value.
func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		switch k {
		case "orb.max_in_flight", "query.peak_merge_rows":
			d[k] = v
		default:
			d[k] = v - before[k]
		}
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns counter deltas over ops ops and wall seconds into the
// counter-based layer metrics.
func counterMetrics(d counters, ops int, seconds float64) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"query.rows_moved_per_op":        d["query.rows_moved"] / n,
		"query.rows_delivered_per_op":    d["query.rows_delivered"] / n,
		"query.pushed_per_op":            d["query.pushed"] / n,
		"query.compensated_per_op":       d["query.compensated"] / n,
		"query.early_stops_per_op":       d["query.early_stops"] / n,
		"query.semijoin_keys_per_op":     d["query.semijoin_keys"] / n,
		"query.probe_rows_pruned_per_op": d["query.probe_rows_pruned"] / n,
		"query.fallbacks_per_op":         d["query.fallbacks"] / n,
		"query.peak_merge_rows":          d["query.peak_merge_rows"],
		"query.plan_cache_hit_ratio":     ratio(d["query.plan_hits"], d["query.plans"]),
		"mdcache.hit_ratio":              ratio(d["mdcache.hits"], d["mdcache.hits"]+d["mdcache.misses"]),
		"mdcache.stale_per_op":           d["mdcache.stale"] / n,
		"mdcache.evictions_per_op":       d["mdcache.evictions"] / n,
		"orb.calls_per_op":               d["orb.calls"] / n,
		"orb.bytes_per_op":               d["orb.bytes"] / n,
		"orb.max_in_flight":              d["orb.max_in_flight"],
		"giop.fragments_per_op":          d["orb.fragments"] / n,
		"cursor.opened_per_op":           d["cursor.opened"] / n,
		"relational.plancache_hit_ratio": ratio(d["relational.plan_hits"], d["relational.plan_hits"]+d["relational.plan_misses"]),
		"wtl.pool_hit_ratio":             ratio(d["wtl.pool_hits"], d["wtl.pool_hits"]+d["wtl.pool_misses"]),
		"gossip.msgs_per_s":              d["gossip.msgs"] / seconds,
	}
}
