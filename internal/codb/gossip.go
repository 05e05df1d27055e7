package codb

import (
	"context"

	"repro/internal/gossip"
	"repro/internal/idl"
	"repro/internal/orb"
)

// This file holds the client side of the co-database's anti-entropy gossip
// exchange (gossip_pull / gossip_push). The payloads are opaque byte strings
// whose layout is owned by internal/gossip; this package only moves them
// across the ORB.

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
