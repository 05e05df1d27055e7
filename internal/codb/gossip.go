package codb

import (
	"context"

	"repro/internal/gossip"
	"repro/internal/idl"
	"repro/internal/orb"
)

// This file holds the client side of the co-database's scale-out operations:
// the anti-entropy gossip exchange (gossip_pull / gossip_push) and the
// two-level discovery relay (relay_probe). The gossip payloads are opaque
// byte strings whose layout is owned by internal/gossip; this package only
// moves them across the ORB.

// NewGossipAgent builds a gossip agent whose exchanges are gossip_pull and
// gossip_push calls on peers' co-databases through o, sent as housekeeping so
// they stay out of the ORB's per-statement call counts. cfg's Exchange and
// Push are replaced.
func NewGossipAgent(o *orb.ORB, cfg gossip.Config) *gossip.Agent {
	cfg.Exchange = func(ctx context.Context, ref string, digest []byte) ([]byte, []byte, error) {
		r, err := o.ResolveString(ref)
		if err != nil {
			return nil, nil, err
		}
		return NewClient(r).GossipPull(orb.WithHousekeeping(ctx), digest)
	}
	cfg.Push = func(ctx context.Context, ref string, delta []byte) error {
		r, err := o.ResolveString(ref)
		if err != nil {
			return err
		}
		_, err = NewClient(r).GossipPush(orb.WithHousekeeping(ctx), delta)
		return err
	}
	return gossip.New(cfg)
}

// RelayTarget names one sub-coalition member the coordinator wants probed:
// the member's federation name plus its co-database reference.
type RelayTarget struct {
	Name string
	Ref  string
}

// RelayResult is the representative's verdict for one relayed member, in the
// same position as the corresponding RelayTarget. Either ErrClass/Err are set
// (the probe failed, classified exactly as the coordinator's direct probe
// would classify it) or Coals/Links carry the member's discovery matches.
type RelayResult struct {
	Name     string
	ErrClass string // empty on success; "timeout"/"comm"/... on failure
	Err      string // human-readable detail for the trace
	Coals    []Match
	Links    []Match
}

func relayTargetToAny(t RelayTarget) idl.Any {
	return idl.Struct(
		idl.F("name", idl.String(t.Name)),
		idl.F("ref", idl.String(t.Ref)),
	)
}

// RelayTargetFromAny unpacks a relay target.
func RelayTargetFromAny(a idl.Any) RelayTarget {
	return RelayTarget{Name: a.GetString("name"), Ref: a.GetString("ref")}
}

func matchesToAny(ms []Match) idl.Any {
	out := make([]idl.Any, len(ms))
	for i, m := range ms {
		out[i] = matchToAny(m)
	}
	return idl.Seq(out...)
}

func matchesFromAny(a idl.Any) []Match {
	if len(a.Seq) == 0 {
		return nil
	}
	out := make([]Match, 0, len(a.Seq))
	for _, item := range a.Seq {
		out = append(out, MatchFromAny(item))
	}
	return out
}

func relayResultToAny(r RelayResult) idl.Any {
	return idl.Struct(
		idl.F("name", idl.String(r.Name)),
		idl.F("errclass", idl.String(r.ErrClass)),
		idl.F("err", idl.String(r.Err)),
		idl.F("coals", matchesToAny(r.Coals)),
		idl.F("links", matchesToAny(r.Links)),
	)
}

// RelayResultFromAny unpacks a relayed probe result.
func RelayResultFromAny(a idl.Any) RelayResult {
	coals, _ := a.Get("coals")
	links, _ := a.Get("links")
	return RelayResult{
		Name:     a.GetString("name"),
		ErrClass: a.GetString("errclass"),
		Err:      a.GetString("err"),
		Coals:    matchesFromAny(coals),
		Links:    matchesFromAny(links),
	}
}

// GossipPull runs the pull half of an anti-entropy exchange: ship our digest,
// receive the peer's delta (entries newer than the digest) and the peer's own
// digest. Idempotent by construction — a digest exchange mutates nothing.
func (c *Client) GossipPull(ctx context.Context, digest []byte) (delta, peerDigest []byte, err error) {
	v, err := c.ref.InvokeIdempotent(ctx, "gossip_pull", idl.String(string(digest)))
	if err != nil {
		return nil, nil, err
	}
	return []byte(v.GetString("delta")), []byte(v.GetString("digest")), nil
}

// GossipPush ships entries the peer is missing and returns how many it
// applied. Safe to retry: the merge-by-version rule makes a replayed push a
// no-op, so this rides the idempotent retry policy like the reads do.
func (c *Client) GossipPush(ctx context.Context, delta []byte) (int, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "gossip_push", idl.String(string(delta)))
	if err != nil {
		return 0, err
	}
	return int(v.Int), nil
}

// RelayProbe asks a sub-coalition representative to probe members for topic on
// the coordinator's behalf, returning one result per member in order.
func (c *Client) RelayProbe(ctx context.Context, topic string, members []RelayTarget) ([]RelayResult, error) {
	targets := make([]idl.Any, len(members))
	for i, m := range members {
		targets[i] = relayTargetToAny(m)
	}
	v, err := c.ref.InvokeIdempotent(ctx, "relay_probe", idl.String(topic), idl.Seq(targets...))
	if err != nil {
		return nil, err
	}
	out := make([]RelayResult, 0, len(v.Seq))
	for _, item := range v.Seq {
		out = append(out, RelayResultFromAny(item))
	}
	return out, nil
}
