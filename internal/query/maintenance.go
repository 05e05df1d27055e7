package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/codb"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// ---- Information-space maintenance ----

// maintenanceCoDB requires an in-process co-database for schema changes.
func (s *Session) maintenanceCoDB() (*codb.CoDatabase, error) {
	if s.p.cfg.LocalCoDB == nil {
		return nil, fmt.Errorf("query: information-space maintenance requires the node's own co-database")
	}
	return s.p.cfg.LocalCoDB, nil
}

func (s *Session) execCreateCoalition(q *wtl.CreateCoalition) (*Response, error) {
	cd, err := s.maintenanceCoDB()
	if err != nil {
		return nil, err
	}
	if err := cd.DefineCoalition(q.Name, q.Parent, q.Description); err != nil {
		return nil, err
	}
	s.p.invalidateCache()
	return &Response{Stmt: q, Text: fmt.Sprintf("Coalition %s created.", q.Name)}, nil
}

func (s *Session) execCreateLink(ctx context.Context, q *wtl.CreateLink) (*Response, error) {
	cd, err := s.maintenanceCoDB()
	if err != nil {
		return nil, err
	}
	ref, err := s.linkTarget(ctx, cd, q)
	if err != nil {
		return nil, fmt.Errorf("query: link %s: %w", q.Name, err)
	}
	if err := cd.AddLink(&codb.ServiceLink{
		Name:        q.Name,
		FromKind:    q.FromKind,
		From:        q.From,
		ToKind:      q.ToKind,
		To:          q.To,
		Description: q.Description,
		InfoType:    q.InfoType,
		CoDBRef:     ref,
	}); err != nil {
		return nil, err
	}
	s.p.invalidateCache()
	return &Response{Stmt: q, Text: fmt.Sprintf("Service link %s created.", q.Name)}, nil
}

// linkTarget is the co-database reference a new link carries, so discovery
// can follow it: the one At names, or else the target database's descriptor
// or the target coalition's entry point. A link nothing resolves is refused.
func (s *Session) linkTarget(ctx context.Context, cd *codb.CoDatabase, q *wtl.CreateLink) (string, error) {
	switch {
	case q.At != "":
		_, ior, err := s.p.resolveAt(q.At)
		return ior, err
	case q.ToKind == "database":
		if d, ok := cd.FindSource(q.To); ok && d.CoDBRef != "" {
			return d.CoDBRef, nil
		}
		return "", fmt.Errorf("database %s is not known here; name its co-database with At", q.To)
	}
	entry, err := s.p.coalitionEntry(ctx, s, q.To)
	if err != nil {
		return "", fmt.Errorf("%w; name a member's co-database with At", err)
	}
	return orb.Stringify(entry.Ref().IOR()), nil
}

// resolveAt opens the co-database an At reference names and returns it
// with its stringified IOR. A reference that is not an IOR is a database
// name for the node's naming service.
func (p *Processor) resolveAt(ref string) (*codb.Client, string, error) {
	ior := ref
	if !strings.HasPrefix(ref, "IOR:") {
		if p.cfg.Naming == "" {
			return nil, "", fmt.Errorf("query: %q is not an IOR, and the node has no naming service", ref)
		}
		nc, err := naming.ClientFor(p.cfg.ORB, p.cfg.Naming)
		if err == nil {
			ior, err = nc.Resolve(naming.CoDatabases + ref)
		}
		if err != nil {
			return nil, "", err
		}
	}
	c, err := p.codbByRef(ior)
	return c, ior, err
}

// memberCoDBs lists the co-databases of a coalition's members as known to
// the entry client, deduplicated by reference, in member order. Opening a
// client is a memoized IOR parse — no I/O — so this is a plain loop.
func (p *Processor) memberCoDBs(ctx context.Context, entry *codb.Client, coalition string) ([]peerTarget, error) {
	members, _, err := p.cachedInstances(ctx, entry, coalition)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []peerTarget
	for _, m := range members {
		if m.CoDBRef == "" || seen[m.CoDBRef] {
			continue
		}
		seen[m.CoDBRef] = true
		if c, err := p.codbByRef(m.CoDBRef); err == nil {
			out = append(out, peerTarget{Name: m.Name, Ref: m.CoDBRef, Peer: c})
		}
	}
	return out, nil
}

// peerStatuses starts one not-yet-dispatched status per peer.
func peerStatuses(peers []peerTarget) []MemberStatus {
	statuses := make([]MemberStatus, len(peers))
	for i, t := range peers {
		statuses[i] = notDispatched(t.Name, t.Ref)
	}
	return statuses
}

// rollbackTimeout bounds the detached rollback of a failed join.
const rollbackTimeout = 2 * time.Second

// execJoin advertises the home database into a coalition: every current
// member's co-database learns the newcomer, and — when this node owns its
// co-database — the coalition is replicated locally with all its members, so
// the newcomer is a full participant ("individual sites join and leave these
// clusters at their own discretion").
func (s *Session) execJoin(ctx context.Context, q *wtl.JoinCoalition) (*Response, error) {
	home := s.p.cfg.HomeDescriptor
	if home == nil {
		return nil, fmt.Errorf("query: node has no home descriptor to advertise")
	}
	var entry *codb.Client
	var err error
	if q.At != "" {
		// At names the way in even when this node holds a copy of the
		// coalition: one it has just created, to join the existing one.
		entry, _, err = s.p.resolveAt(q.At)
	} else {
		entry, err = s.p.coalitionEntry(ctx, s, q.Coalition)
	}
	if err != nil {
		return nil, err
	}
	members, _, err := s.p.cachedInstances(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if strings.EqualFold(m.Name, s.p.cfg.Home) {
			return nil, fmt.Errorf("query: %s is %w of %s", s.p.cfg.Home, codb.ErrAlreadyMember, q.Coalition)
		}
	}
	peers, err := s.p.memberCoDBs(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	// Advertise into every member co-database in parallel. The fan-out
	// reaches every peer before errors are checked, so on failure the
	// successful advertisements are rolled back (best effort) and a failed
	// join leaves no peer knowing the newcomer.
	statuses := peerStatuses(peers)
	s.p.callMembers(ctx, statuses, &memberFan{
		span: "query.advertise:", sess: s, layer: "communication", what: "advertising into the co-database of ",
		call: func(ctx context.Context, i int, _ *trace.Span) error {
			s.tracef("communication", "advertising %s into a member co-database", s.p.cfg.Home)
			return peers[i].Peer.Advertise(ctx, q.Coalition, home)
		}})
	var advertised []int
	var joinErr error
	for i := range statuses {
		if statuses[i].OK() {
			advertised = append(advertised, i)
		} else if joinErr == nil { // report the first failure in member order
			joinErr = fmt.Errorf("query: join %s: advertising into the co-database of %s: %s",
				q.Coalition, statuses[i].Member, statuses[i].Err)
		}
	}
	if joinErr != nil {
		// The statement's context may be the very reason the join failed
		// (deadline, cancel), so the rollback runs detached from it, bounded
		// on its own — a dead context would fail every withdrawal and leave
		// peers advertising a node that never joined.
		rbCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
		defer cancel()
		s.p.callSome(rbCtx, statuses, advertised, s.withdrawFan(peers, q.Coalition))
		return nil, joinErr
	}
	// Local replication.
	if cd := s.p.cfg.LocalCoDB; cd != nil {
		if !cd.HasCoalition(q.Coalition) {
			desc, syns, _ := entry.CoalitionInfo(ctx, q.Coalition)
			if err := cd.DefineCoalition(q.Coalition, "", desc, syns...); err != nil {
				return nil, err
			}
		}
		for _, m := range append(slices.Clip(members), home) {
			if err := cd.AddMember(q.Coalition, m); err != nil && !errors.Is(err, codb.ErrAlreadyMember) {
				return nil, err
			}
		}
	}
	// The membership everyone cached just changed; drop it eagerly so the
	// join is observable here before gossip carries the new versions.
	s.p.invalidateCache()
	return &Response{Stmt: q,
		Text: fmt.Sprintf("%s joined coalition %s.", s.p.cfg.Home, q.Coalition)}, nil
}

// withdrawFan is the member call that removes the home database from a
// peer's copy of a coalition — a leave, or the rollback of a failed join.
func (s *Session) withdrawFan(peers []peerTarget, coalition string) *memberFan {
	return &memberFan{span: "query.withdraw:",
		call: func(ctx context.Context, i int, _ *trace.Span) error {
			return peers[i].Peer.RemoveMember(ctx, coalition, s.p.cfg.Home)
		}}
}

// execLeave withdraws the home database from a coalition everywhere it is
// known: every member's co-database, and the local copy.
func (s *Session) execLeave(ctx context.Context, q *wtl.LeaveCoalition) (*Response, error) {
	entry, err := s.p.coalitionEntry(ctx, s, q.Coalition)
	if err != nil {
		return nil, err
	}
	peers, err := s.p.memberCoDBs(ctx, entry, q.Coalition)
	if err != nil {
		return nil, err
	}
	statuses := peerStatuses(peers)
	s.p.callMembers(ctx, statuses, s.withdrawFan(peers, q.Coalition))
	removed := false
	for i := range statuses {
		removed = removed || statuses[i].OK()
	}
	if !removed {
		return nil, fmt.Errorf("query: %s is not a member of %s", s.p.cfg.Home, q.Coalition)
	}
	s.p.invalidateCache()
	return &Response{Stmt: q,
		Text: fmt.Sprintf("%s left coalition %s.", s.p.cfg.Home, q.Coalition)}, nil
}
