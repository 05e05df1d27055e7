package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/codb"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// Lead is one discovery result offered to the user for selection, with the
// provenance information WebFINDIT uses to educate the user ("the system
// prompts the user to select the most interesting leads").
type Lead struct {
	Coalition string
	Score     float64
	Via       string // "local", "link:<name>", "peer:<database>"
	CoDBRef   string // co-database able to expand this lead ("" = local)
}

// ---- Discovery (the paper's resolution algorithm) ----

// execFind implements the three-stage resolution of §2: local coalitions
// first, then local service links, then the coalitions/links known to the
// other members of the local coalitions.
func (s *Session) execFind(ctx context.Context, q *wtl.FindCoalitions) (*Response, error) {
	leads, probes, err := s.p.resolveTopic(ctx, s, q.Topic)
	if err != nil {
		return nil, err
	}
	resp := &Response{Stmt: q, Leads: leads, Members: probes}
	for _, m := range probes {
		if !m.OK() {
			resp.Partial = true
		}
	}
	if len(leads) == 0 {
		resp.Text = fmt.Sprintf("No coalitions found for information %q.", q.Topic)
		return resp, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Coalitions offering information %q:\n", q.Topic)
	for _, l := range leads {
		fmt.Fprintf(&b, "  - %s (score %.2f, via %s)\n", l.Coalition, l.Score, l.Via)
	}
	resp.Text = strings.TrimRight(b.String(), "\n")
	return resp, nil
}

// fullScore reports whether any lead matches every query token — the
// condition under which a resolution stage "answers the query" and no
// further escalation is needed.
func fullScore(leads []Lead) bool {
	for _, l := range leads {
		if l.Score >= 1.0 {
			return true
		}
	}
	return false
}

// resolveTopic runs the resolution algorithm and returns leads plus the
// per-peer outcome of the stage-3 probes. Stages escalate (local coalitions,
// then local service links, then coalition peers) until some stage produces
// a full match; weaker partial matches from earlier stages are kept as
// additional leads for the user to inspect. Each stage runs in its own span,
// and stage 3's fan-out opens a span per peer probed, so the trace shows
// where discovery time goes. An unreachable or slow peer does not fail the
// statement: its status records the error class and discovery degrades to
// the peers that answered.
func (p *Processor) resolveTopic(ctx context.Context, s *Session, topic string) ([]Lead, []MemberStatus, error) {
	local := p.cfg.Local
	var leads []Lead

	// Stage 1: coalitions in the local co-database. The communication line is
	// written after the lookup so it reflects what actually happened: a
	// cache-served stage performs no invocation, and its fixed trace line
	// skips fmt formatting on the repeat-discovery hot path.
	st1Ctx, st1 := trace.StartSpan(ctx, "query.stage:local-coalitions")
	matches, out1, err := p.cachedFindCoalitions(st1Ctx, local, topic)
	st1.SetAttr("cache", out1.String())
	st1.End(err)
	if err != nil {
		return nil, nil, fmt.Errorf("query: local co-database: %w", err)
	}
	if out1.Served() {
		s.traceMsg("communication", "find_coalitions answered by the metadata cache (local co-database)")
	} else {
		s.tracef("communication", "invoke find_coalitions(%q) on local co-database", topic)
	}
	s.traceMsg("meta-data", "local co-database scored "+strconv.Itoa(len(matches))+" coalition(s)")
	leads = append(leads, leadsFrom(matches, "")...)
	if fullScore(leads) {
		return sortLeads(leads), nil, nil
	}

	// Stage 2: service links known locally.
	st2Ctx, st2 := trace.StartSpan(ctx, "query.stage:local-links")
	links, out2, err := p.cachedFindLinks(st2Ctx, local, topic)
	st2.SetAttr("cache", out2.String())
	st2.End(err)
	if err != nil {
		return nil, nil, fmt.Errorf("query: local co-database links: %w", err)
	}
	if out2.Served() {
		s.traceMsg("communication", "find_links answered by the metadata cache (local co-database)")
	} else {
		s.tracef("communication", "invoke find_links(%q) on local co-database", topic)
	}
	s.traceMsg("meta-data", "local co-database scored "+strconv.Itoa(len(links))+" service link(s)")
	leads = append(leads, leadsFrom(links, "")...)
	if fullScore(leads) {
		return sortLeads(leads), nil, nil
	}

	// Stage 3: ask the other members of the local coalitions whether they
	// know a coalition or a service link for this topic. The member list is
	// assembled serially from local metadata (deterministic order,
	// deduplicated by co-database reference); the peers themselves are then
	// probed in parallel, so stage latency tracks the slowest peer instead
	// of the sum of all peers. Results are merged back in member order,
	// keeping lead ordering identical to the serial algorithm.
	st3Ctx, st3 := trace.StartSpan(ctx, "query.stage:coalition-peers")
	defer st3.End(nil)
	groups, _, err := p.cachedPeerGroups(st3Ctx, local)
	if err != nil {
		return nil, nil, err
	}
	// Flatten the groups into the flat probe list (the order both routing
	// modes share), remembering which group each target entered through so
	// hierarchical routing can shard per coalition.
	var probes []peerProbe
	var groupOf []int
	for gi, g := range groups {
		for _, tgt := range g.Members {
			probes = append(probes, peerProbe{name: tgt.Name, ref: tgt.Ref, peer: tgt.Peer})
			groupOf = append(groupOf, gi)
		}
	}
	statuses := make([]MemberStatus, len(probes))
	// Fast path: cached probes under the peer's current version are answered
	// inline, skipping the per-peer goroutine, span and call-stats
	// scaffolding entirely; only the peers without one join the fan-out below.
	var pending []int
	for i := range probes {
		pr := &probes[i]
		if res, ok := p.peekProbe(pr.peer, topic); ok {
			pr.coals, pr.links = res.Coals, res.Links
			statuses[i] = MemberStatus{Member: pr.name, Ref: pr.ref, Cached: true}
			continue
		}
		statuses[i] = notDispatched(pr.name, pr.ref)
		s.tracef("communication", "invoke find_coalitions(%q) on peer co-database of %s", topic, pr.name)
		s.tracef("communication", "invoke find_links(%q) on peer co-database of %s", topic, pr.name)
		pending = append(pending, i)
	}
	if cachedN := len(probes) - len(pending); cachedN > 0 {
		s.traceMsg("communication", "peer probes answered by the metadata cache: "+
			strconv.Itoa(cachedN)+" of "+strconv.Itoa(len(probes)))
	}
	// Hierarchical routing: shards of large coalitions are probed through an
	// elected representative; whatever it cannot cover (small coalitions,
	// shards whose every relay candidate failed) stays in pending and takes
	// the flat fan-out below.
	if size := p.subCoalitionSize(); size > 0 && len(pending) > 0 {
		pending = p.relayRoute(st3Ctx, s, topic, size, groupOf, probes, statuses, pending)
	}
	p.callSome(st3Ctx, statuses, pending, &memberFan{
		span: "query.probe:", sess: s, layer: "communication", what: "peer co-database of ",
		call: func(ctx context.Context, i int, sp *trace.Span) error {
			pr, st := &probes[i], &statuses[i]
			res, out, err := p.cachedProbe(ctx, pr.peer, topic)
			st.Cached = out.Served() || out == mdcache.Coalesced
			sp.SetAttr("cache", out.String())
			if err != nil {
				return err
			}
			pr.coals, pr.links = res.Coals, res.Links
			return nil
		}})
	out := leads
	seen := map[string]bool{}
	for _, l := range out {
		seen["c:"+strings.ToLower(l.Coalition)] = true
	}
	for i := range probes {
		pr := &probes[i]
		for _, match := range pr.coals {
			key := "c:" + strings.ToLower(match.Coalition)
			if !seen[key] {
				seen[key] = true
				out = append(out, Lead{Coalition: match.Coalition, Score: match.Score,
					Via: "peer:" + pr.name, CoDBRef: pr.ref})
			}
		}
		for _, match := range pr.links {
			key := "l:" + strings.ToLower(match.Coalition)
			if !seen[key] {
				seen[key] = true
				ref := match.CoDBRef
				if ref == "" {
					ref = pr.ref
				}
				out = append(out, Lead{Coalition: match.Coalition, Score: match.Score,
					Via: "peer:" + pr.name + "/" + match.Via, CoDBRef: ref})
			}
		}
	}
	s.tracef("meta-data", "coalition peers contributed %d lead(s)", len(out)-len(leads))
	return sortLeads(out), statuses, nil
}

// sortLeads orders leads by descending score, then name, for stable output.
func sortLeads(leads []Lead) []Lead {
	sort.SliceStable(leads, func(i, j int) bool {
		if leads[i].Score != leads[j].Score {
			return leads[i].Score > leads[j].Score
		}
		return leads[i].Coalition < leads[j].Coalition
	})
	return leads
}

func leadsFrom(matches []codb.Match, defaultRef string) []Lead {
	out := make([]Lead, len(matches))
	for i, m := range matches {
		ref := m.CoDBRef
		if ref == "" {
			ref = defaultRef
		}
		out[i] = Lead{Coalition: m.Coalition, Score: m.Score, Via: m.Via, CoDBRef: ref}
	}
	return out
}

// maxRefs bounds the resolved-reference memo. A federation names one
// co-database and one ISI per node, so this is far above any working set;
// past it an arbitrary entry makes room.
const maxRefs = 1024

// resolveRef resolves a stringified IOR, co-database or ISI, through the
// processor's memo, so a repeated reference costs a map lookup instead of a
// hex decode and a CDR parse per call. Object references are safe for
// concurrent use, so one is shared by every caller.
func (p *Processor) resolveRef(ior string) (*orb.ObjectRef, error) {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	if r, ok := p.refs[ior]; ok {
		return r, nil
	}
	r, err := p.cfg.ORB.ResolveString(ior)
	if err != nil {
		return nil, err
	}
	if len(p.refs) >= maxRefs {
		for k := range p.refs {
			delete(p.refs, k)
			break
		}
	}
	p.refs[ior] = r
	return r, nil
}

// codbByRef opens a co-database client from a stringified IOR.
func (p *Processor) codbByRef(ior string) (*codb.Client, error) {
	r, err := p.resolveRef(ior)
	if err != nil {
		return nil, err
	}
	return codb.NewClient(r), nil
}

// coalitionEntry finds a co-database that knows the coalition: locally,
// through a service link, or through a coalition peer.
func (p *Processor) coalitionEntry(ctx context.Context, s *Session, coalition string) (*codb.Client, error) {
	local := p.cfg.Local
	if p.hasCoalition(ctx, local, coalition) {
		s.tracef("meta-data", "coalition %s found in local co-database", coalition)
		return local, nil
	}
	// A service link naming the coalition as target may carry a reference.
	links, _, err := p.cachedLinks(ctx, local)
	if err == nil {
		for _, l := range links {
			if strings.EqualFold(l.To, coalition) && l.CoDBRef != "" {
				if peer, err := p.codbByRef(l.CoDBRef); err == nil && p.hasCoalition(ctx, peer, coalition) {
					s.tracef("communication", "entering coalition %s through service link %s", coalition, l.Name)
					return peer, nil
				}
			}
		}
	}
	// Ask coalition peers.
	memberOf, _, _ := p.cachedMemberOf(ctx, local)
	for _, c := range memberOf {
		members, _, err := p.cachedInstances(ctx, local, c)
		if err != nil {
			continue
		}
		for _, m := range members {
			if strings.EqualFold(m.Name, p.cfg.Home) || m.CoDBRef == "" {
				continue
			}
			peer, err := p.codbByRef(m.CoDBRef)
			if err != nil {
				continue
			}
			if p.hasCoalition(ctx, peer, coalition) {
				s.tracef("communication", "entering coalition %s through peer %s", coalition, m.Name)
				return peer, nil
			}
			// One more hop: the peer's links may carry the reference.
			plinks, _, err := p.cachedLinks(ctx, peer)
			if err != nil {
				continue
			}
			for _, l := range plinks {
				if strings.EqualFold(l.To, coalition) && l.CoDBRef != "" {
					if far, err := p.codbByRef(l.CoDBRef); err == nil && p.hasCoalition(ctx, far, coalition) {
						s.tracef("communication", "entering coalition %s through peer %s link %s",
							coalition, m.Name, l.Name)
						return far, nil
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("query: no entry point found for coalition %s", coalition)
}

func (p *Processor) hasCoalition(ctx context.Context, c *codb.Client, coalition string) bool {
	names, _, err := p.cachedCoalitions(ctx, c)
	if err != nil {
		return false
	}
	for _, n := range names {
		if strings.EqualFold(n, coalition) {
			return true
		}
	}
	return false
}
