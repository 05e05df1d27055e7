package query

import (
	"context"
	"strings"

	"repro/internal/codb"
	"repro/internal/mdcache"
)

// This file is the query processor's view of the federation metadata cache
// (Config.Cache). Every helper returns the mdcache.Outcome so call sites can
// annotate spans and MemberStatus entries with cache=hit|miss|….
//
// Every hit is verified against its co-database's version, read without a
// round trip: CoDatabase.Version() for the node's own co-database, the gossip
// store's entry for a peer. A peer the store holds nothing from is learned on
// the first miss against it by one housekeeping gossip exchange; if that
// fails, the answer is returned but not cached.
//
// Cached values are shared across sessions and goroutines: callers must
// treat returned slices and descriptors as read-only.

// probeResult is the cached unit of a stage-3 discovery probe: both
// find_coalitions and find_links answers from one peer, held as a single
// entry so N concurrent same-topic resolves coalesce into exactly one
// two-call fan-out per peer.
type probeResult struct {
	Coals []codb.Match
	Links []codb.Match
}

// source names co-database c as gossip.Source does: "<addr>/<object key>".
// Every key holding an answer from c starts with it and a terminator, since
// object keys on one ORB can extend one another ("…/S1" and "…/S10").
func source(c *codb.Client) string {
	r := c.Ref()
	return r.Addr() + "/" + string(r.IOR().ObjectKey)
}

// cacheKey names one question about the co-database named src: the source,
// the question's family, and the question's argument (case-folded; "" for
// the families that take none).
func cacheKey(src, family, arg string) string {
	return src + "|" + family + "|" + strings.ToLower(arg)
}

// version reads co-database c's version without a round trip, if it is known.
func (p *Processor) version(c *codb.Client, src string) (uint64, bool) {
	if cd := p.cfg.LocalCoDB; cd != nil && c == p.cfg.Local {
		return cd.Version(), true
	}
	return p.cfg.Gossip.Store().SourceVersion(src)
}

// versioner is the cache's version read for co-database c: version, after
// one gossip exchange with c if the store does not know it yet.
func (p *Processor) versioner(c *codb.Client, src string) mdcache.Versioner {
	return func(ctx context.Context) (uint64, bool) {
		if v, ok := p.version(c, src); ok {
			return v, true
		}
		p.cfg.Gossip.Learn(ctx, c.Ref().IOR().String())
		return p.version(c, src)
	}
}

// cached answers one metadata question about co-database c through the
// cache, as a T: fetch runs on a miss and its result is shared by every later
// asker until c's version moves. A negative entry comes back as T's zero.
func cached[T any](ctx context.Context, p *Processor, c *codb.Client, family, arg string, fetch mdcache.Fetcher) (T, mdcache.Outcome, error) {
	src := source(c)
	v, out, err := p.cfg.Cache.Get(ctx, cacheKey(src, family, arg), mdcache.Request{Fetch: fetch, Version: p.versioner(c, src)})
	if err != nil || v == nil {
		var zero T
		return zero, out, err
	}
	return v.(T), out, nil
}

// peekProbe returns a peer's probe result if one is cached under the peer's
// current version, without learning, coalescing or fetching. resolveTopic
// uses it to answer repeat-topic discovery before paying for the per-peer
// fan-out scaffolding (goroutine, span, call-stats) that a cold probe needs.
func (p *Processor) peekProbe(c *codb.Client, topic string) (probeResult, bool) {
	src := source(c)
	if ver, ok := p.version(c, src); ok {
		if v, ok := p.cfg.Cache.Peek(cacheKey(src, "probe", topic), ver); ok {
			return v.(probeResult), true
		}
	}
	return probeResult{}, false
}

// cachedProbe runs (or replays) one peer's stage-3 discovery probe.
func (p *Processor) cachedProbe(ctx context.Context, c *codb.Client, topic string) (probeResult, mdcache.Outcome, error) {
	return cached[probeResult](ctx, p, c, "probe", topic, func(ctx context.Context) (any, error) {
		coals, err := c.FindCoalitions(ctx, topic)
		if err != nil {
			return nil, err
		}
		links, err := c.FindLinks(ctx, topic)
		if err != nil {
			return nil, err
		}
		return probeResult{Coals: coals, Links: links}, nil
	})
}

// cachedFindCoalitions scores a co-database's coalitions against a topic.
func (p *Processor) cachedFindCoalitions(ctx context.Context, c *codb.Client, topic string) ([]codb.Match, mdcache.Outcome, error) {
	return cached[[]codb.Match](ctx, p, c, "findc", topic,
		func(ctx context.Context) (any, error) { return c.FindCoalitions(ctx, topic) })
}

// cachedFindLinks scores a co-database's service links against a topic.
func (p *Processor) cachedFindLinks(ctx context.Context, c *codb.Client, topic string) ([]codb.Match, mdcache.Outcome, error) {
	return cached[[]codb.Match](ctx, p, c, "findl", topic,
		func(ctx context.Context) (any, error) { return c.FindLinks(ctx, topic) })
}

// cachedCoalitions lists a co-database's coalition classes.
func (p *Processor) cachedCoalitions(ctx context.Context, c *codb.Client) ([]string, mdcache.Outcome, error) {
	return cached[[]string](ctx, p, c, "coalitions", "",
		func(ctx context.Context) (any, error) { return c.Coalitions(ctx) })
}

// cachedMemberOf lists the coalitions a co-database's owner belongs to.
func (p *Processor) cachedMemberOf(ctx context.Context, c *codb.Client) ([]string, mdcache.Outcome, error) {
	return cached[[]string](ctx, p, c, "memberof", "",
		func(ctx context.Context) (any, error) { return c.MemberOf(ctx) })
}

// cachedInstances lists a coalition's member descriptors.
func (p *Processor) cachedInstances(ctx context.Context, c *codb.Client, coalition string) ([]*codb.SourceDescriptor, mdcache.Outcome, error) {
	return cached[[]*codb.SourceDescriptor](ctx, p, c, "instances", coalition,
		func(ctx context.Context) (any, error) { return c.Instances(ctx, coalition) })
}

// cachedLinks lists a co-database's service links.
func (p *Processor) cachedLinks(ctx context.Context, c *codb.Client) ([]*codb.ServiceLink, mdcache.Outcome, error) {
	return cached[[]*codb.ServiceLink](ctx, p, c, "links", "",
		func(ctx context.Context) (any, error) { return c.Links(ctx) })
}

// cachedAccessInfo fetches a source descriptor by database name.
func (p *Processor) cachedAccessInfo(ctx context.Context, c *codb.Client, source string) (*codb.SourceDescriptor, mdcache.Outcome, error) {
	return cached[*codb.SourceDescriptor](ctx, p, c, "access", source,
		func(ctx context.Context) (any, error) { return c.AccessInfo(ctx, source) })
}

// peerTarget is one stage-3 probe target: a coalition peer's member name,
// co-database reference and canonical client.
type peerTarget struct {
	Name string
	Ref  string
	Peer *codb.Client
}

// peerGroup is one coalition's contribution to the stage-3 probe-target list:
// the peers that entered the list through it, in member order. Hierarchical
// routing shards groups; flat routing ignores the grouping and walks the
// concatenation, so both modes see the same targets in the same order.
type peerGroup struct {
	Coalition string
	Members   []peerTarget
}

// cachedPeerGroups assembles (or replays) the deduplicated probe-target list
// for stage-3 discovery, grouped by the coalition that contributed each peer:
// every distinct peer co-database reachable through the coalitions the local
// owner belongs to, in deterministic member order (a peer reachable through
// several coalitions counts for the first one enumerated). The list is itself
// a cache entry under the local co-database's version, so a repeat discovery
// skips the member-of and per-coalition instance lookups entirely.
func (p *Processor) cachedPeerGroups(ctx context.Context, local *codb.Client) ([]peerGroup, mdcache.Outcome, error) {
	return cached[[]peerGroup](ctx, p, local, "peers", "", func(ctx context.Context) (any, error) {
		memberOf, _, err := p.cachedMemberOf(ctx, local)
		if err != nil {
			return nil, err
		}
		var groups []peerGroup
		seen := map[string]bool{}
		for _, coalition := range memberOf {
			members, _, err := p.cachedInstances(ctx, local, coalition)
			if err != nil {
				continue
			}
			var g []peerTarget
			for _, m := range members {
				if strings.EqualFold(m.Name, p.cfg.Home) || m.CoDBRef == "" || seen[m.CoDBRef] {
					continue
				}
				peer, err := p.codbByRef(m.CoDBRef)
				if err != nil {
					continue
				}
				seen[m.CoDBRef] = true
				g = append(g, peerTarget{Name: m.Name, Ref: m.CoDBRef, Peer: peer})
			}
			if len(g) > 0 {
				groups = append(groups, peerGroup{Coalition: coalition, Members: g})
			}
		}
		return groups, nil
	})
}

// invalidateCache eagerly empties the metadata cache after a statement that
// mutates the information space (Join/Leave, Create Coalition/Link), so the
// change is observable here before gossip carries the new versions.
func (p *Processor) invalidateCache() { p.cfg.Cache.InvalidateAll() }
