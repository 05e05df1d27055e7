package query

import (
	"context"
	"errors"

	"repro/internal/codb"
	"repro/internal/gossip"
	"repro/internal/mdcache"
	"repro/internal/trace"
)

// This file is the two-level discovery tier. Flat stage-3 discovery probes
// every coalition peer directly, which costs the coordinator O(members) RPCs
// per resolve; at hundreds of members that fan-out is the scalability wall
// the paper's coalition model hits. Hierarchical routing shards each large
// coalition into sub-coalitions of defaultSubCoalitionSize members, elects the
// first live member of each shard as its representative (liveness comes from
// the gossip failure detector), and sends the representative one relay_probe
// carrying the whole shard. The representative probes its shard — with its
// own metadata cache and fan-out — and returns one result per member, which
// the coordinator merges positionally. Every member is still probed exactly
// once, so the answer (leads, Partial, MemberStatus) is identical to flat
// fan-out — the differential suite in internal/simtest asserts it — but the
// coordinator's own RPC count drops from O(members) to O(members/shard).

// peerProbe is one stage-3 target's in-flight state: identity plus whatever
// matches its probe (direct or relayed) produced.
type peerProbe struct {
	name  string
	ref   string
	peer  *codb.Client
	coals []codb.Match
	links []codb.Match
}

// relayRoute routes the pending probes of large coalitions through shard
// representatives. It fills probes/statuses for every member a relay
// answered and returns the indices still pending — small-coalition members,
// plus shards whose every relay candidate failed (those fall back to the
// coordinator's direct fan-out, so no member is ever silently dropped).
func (p *Processor) relayRoute(ctx context.Context, s *Session, topic string, size int, groupOf []int, probes []peerProbe, statuses []MemberStatus, pending []int) []int {
	// Partition the pending indices by the coalition group they entered
	// through, preserving flat order within each group.
	byGroup := map[int][]int{}
	var groupOrder []int
	for _, idx := range pending {
		gi := groupOf[idx]
		if _, ok := byGroup[gi]; !ok {
			groupOrder = append(groupOrder, gi)
		}
		byGroup[gi] = append(byGroup[gi], idx)
	}

	var direct []int // indices the flat fan-out must still probe
	var shards [][]int
	for _, gi := range groupOrder {
		members := byGroup[gi]
		if len(members) <= size {
			// Small coalition: the paper's flat model, untouched.
			direct = append(direct, members...)
			continue
		}
		for start := 0; start < len(members); start += size {
			end := start + size
			if end > len(members) {
				end = len(members)
			}
			shards = append(shards, members[start:end])
		}
	}
	if len(shards) == 0 {
		return direct
	}

	// Shards relay concurrently; each shard's relay chain runs serially
	// (representative, then failover candidates).
	failed := make([][]int, len(shards))
	p.fanOut(ctx, len(shards), func(si int) {
		shard := shards[si]
		if !p.relayShard(ctx, s, topic, shard, probes, statuses) {
			failed[si] = shard
		}
	})
	for _, shard := range failed {
		if len(shard) > 0 {
			p.stats.relayDirectFallbacks.Add(1)
			direct = append(direct, shard...)
		}
	}
	return direct
}

// relayShard probes one shard through its representative, trying each live
// member as the relay before giving up. Reports whether any relay answered.
func (p *Processor) relayShard(ctx context.Context, s *Session, topic string, shard []int, probes []peerProbe, statuses []MemberStatus) bool {
	p.stats.relayShards.Add(1)
	targets := make([]codb.RelayTarget, len(shard))
	for k, idx := range shard {
		targets[k] = codb.RelayTarget{Name: probes[idx].name, Ref: probes[idx].ref}
	}
	// Election: live members first (in shard order), suspected ones after —
	// a partitioned representative is skipped, not timed out against, but
	// still gets its chance once every live candidate has failed.
	var order []int
	for _, idx := range shard {
		if p.alive(probes[idx].name) {
			order = append(order, idx)
		}
	}
	for _, idx := range shard {
		if !p.alive(probes[idx].name) {
			order = append(order, idx)
		}
	}
	// One relay covers a whole shard of member probes, so its budget scales
	// with the shard instead of a single member's timeout. BAD_OPERATION
	// fails a candidate too: a representative that predates the relay
	// protocol is treated like a dead one.
	var results []codb.RelayResult
	relay := &memberFan{span: "query.relay:", budget: len(shard),
		sess: s, layer: "communication", what: "relay via representative ",
		call: func(ctx context.Context, i int, _ *trace.Span) (err error) {
			results, err = probes[i].peer.RelayProbe(ctx, topic, targets)
			if err == nil && len(results) != len(targets) {
				err = errRelayShape
			}
			return err
		}}
	for _, idx := range order {
		rep := notDispatched(probes[idx].name, probes[idx].ref)
		if p.callMember(ctx, &rep, idx, relay) != nil {
			p.stats.relayFailovers.Add(1)
			continue
		}
		s.tracef("communication", "relay probe of %d member(s) answered by representative %s", len(shard), rep.Member)
		for k, ridx := range shard {
			r := results[k]
			st := &statuses[ridx]
			st.ErrClass, st.Err = r.ErrClass, r.Err
			st.Stale = r.Stale
			if r.ErrClass == "" {
				probes[ridx].coals, probes[ridx].links = r.Coals, r.Links
				p.stats.relayedProbes.Add(1)
			}
		}
		return true
	}
	s.tracef("communication", "every relay candidate failed for a %d-member shard; probing directly", len(shard))
	return false
}

// errRelayShape flags a relay reply whose result count does not match the
// shard — treated as a failed relay, never as member answers.
var errRelayShape = errors.New("query: relay reply does not match shard")

// RelayProbe is the representative side of relay_probe: probe the given
// members for topic on the coordinator's behalf and return one result per
// member, in order. It reuses the same cached probe path the representative's
// own discovery uses, so relayed probes populate (and are answered by) its
// metadata cache, and failures classify exactly as the coordinator's direct
// probe would classify them. Wired into the co-database servant through
// codb.ServantOptions.Relay.
func (p *Processor) RelayProbe(ctx context.Context, topic string, members []codb.RelayTarget) []codb.RelayResult {
	results := make([]codb.RelayResult, len(members))
	statuses := make([]MemberStatus, len(members))
	for i, m := range members {
		statuses[i] = notDispatched(m.Name, m.Ref)
	}
	p.callMembers(ctx, statuses, &memberFan{span: "query.relayprobe:",
		call: func(ctx context.Context, i int, sp *trace.Span) error {
			client, err := p.codbByRef(members[i].Ref)
			if err != nil {
				return err
			}
			res, out, err := p.cachedProbe(ctx, client, topic)
			sp.SetAttr("cache", out.String())
			if err != nil {
				return err
			}
			results[i].Coals, results[i].Links = res.Coals, res.Links
			results[i].Stale = out == mdcache.Stale
			return nil
		}})
	for i := range results {
		results[i].Name = members[i].Name
		results[i].ErrClass, results[i].Err = statuses[i].ErrClass, statuses[i].Err
	}
	return results
}

// GossipApplied is the gossip agent's OnApply hook. The agent hands it only
// entries strictly newer than its store held, so each one proves the peer's
// metadata moved: every cached answer fetched from that peer is dropped.
func (p *Processor) GossipApplied(entries []gossip.Entry) {
	for _, e := range entries {
		if e.CoDBRef == "" {
			continue
		}
		client, err := p.codbByRef(e.CoDBRef)
		if err != nil {
			continue
		}
		p.cfg.Cache.InvalidatePrefix(p.srcPrefix(client))
	}
}
