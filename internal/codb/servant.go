package codb

import (
	"context"
	"fmt"

	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/trace"
)

// IDL is the CORBA interface of a co-database server: the meta-data layer
// operations the query layer uses to educate users and resolve queries.
var IDL = idl.MustParse(`
module WebFINDIT {
    interface CoDatabase {
        string owner();
        sequence<any> find_coalitions(in string topic);
        sequence<any> find_links(in string topic);
        sequence<any> coalitions();
        sequence<any> member_of();
        sequence<any> subclasses(in string coalition, in boolean direct);
        sequence<any> instances(in string coalition);
        any coalition_info(in string coalition);
        any access_info(in string source);
        any document(in string source);
        sequence<any> links();
        void advertise(in string coalition, in any descriptor);
        void remove_member(in string coalition, in string source);
        any gossip_pull(in string digest);
        long long gossip_push(in string delta);
    };
};
`)[0]

func matchToAny(m Match) idl.Any {
	return idl.Struct(
		idl.F("coalition", idl.String(m.Coalition)),
		idl.F("score", idl.Double(m.Score)),
		idl.F("via", idl.String(m.Via)),
		idl.F("codb_ref", idl.String(m.CoDBRef)),
	)
}

// MatchFromAny unpacks a discovery match.
func MatchFromAny(a idl.Any) Match {
	score, _ := a.Get("score")
	return Match{
		Coalition: a.GetString("coalition"),
		Score:     score.Float,
		Via:       a.GetString("via"),
		CoDBRef:   a.GetString("codb_ref"),
	}
}

// ServantOptions are the servant's optional hooks; the zero value leaves the
// gossip operations unregistered (callers then get BAD_OPERATION, the
// documented "peer predates the protocol" signal).
type ServantOptions struct {
	// Gossip serves the anti-entropy operations (gossip_pull/gossip_push)
	// when non-nil — in practice the node's *gossip.Agent.
	Gossip GossipExchanger
}

// GossipExchanger is the servant-side surface of the anti-entropy protocol,
// implemented by gossip.Agent. Payloads are opaque to this package: the
// gossip wire codec owns their layout.
type GossipExchanger interface {
	HandlePull(digest []byte) (delta, selfDigest []byte, err error)
	HandlePush(delta []byte) (int, error)
}

// NewServant exposes a co-database through the ORB without the gossip
// operations.
func NewServant(cd *CoDatabase) orb.Servant { return NewServantWith(cd, ServantOptions{}) }

// NewServantWith is NewServant with the hooks in opts.
func NewServantWith(cd *CoDatabase, opts ServantOptions) orb.Servant {
	userErr := func(err error) error {
		return &orb.UserException{Name: "CoDatabaseError", Message: err.Error()}
	}
	h := orb.NewHandler(IDL)
	// on wraps each operation in a "codb.<op>" span tagged with the owning
	// database, so metadata lookups appear in the trace of the query that
	// issued them and aggregate per-operation in the tracer's metrics.
	on := func(op string, fn orb.OpFunc) {
		h.OnCtx(op, func(ctx context.Context, args []idl.Any) (idl.Any, error) {
			_, sp := trace.StartSpan(ctx, "codb."+op)
			sp.SetAttr("owner", cd.Owner())
			res, err := fn(args)
			sp.End(err)
			return res, err
		})
	}
	on("owner", func(args []idl.Any) (idl.Any, error) {
		return idl.String(cd.Owner()), nil
	})
	on("find_coalitions", func(args []idl.Any) (idl.Any, error) {
		matches := cd.FindCoalitions(args[0].Str)
		out := make([]idl.Any, len(matches))
		for i, m := range matches {
			out[i] = matchToAny(m)
		}
		return idl.Seq(out...), nil
	})
	on("find_links", func(args []idl.Any) (idl.Any, error) {
		matches := cd.FindLinks(args[0].Str)
		out := make([]idl.Any, len(matches))
		for i, m := range matches {
			out[i] = matchToAny(m)
		}
		return idl.Seq(out...), nil
	})
	on("coalitions", func(args []idl.Any) (idl.Any, error) {
		return idl.Strings(cd.Coalitions()), nil
	})
	on("member_of", func(args []idl.Any) (idl.Any, error) {
		return idl.Strings(cd.MemberOf()), nil
	})
	on("subclasses", func(args []idl.Any) (idl.Any, error) {
		subs, err := cd.SubCoalitions(args[0].Str, args[1].Bool)
		if err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Strings(subs), nil
	})
	on("instances", func(args []idl.Any) (idl.Any, error) {
		members, err := cd.memberObjects(args[0].Str)
		if err != nil {
			return idl.Null(), userErr(err)
		}
		out := make([]idl.Any, len(members))
		for i, o := range members {
			out[i] = objectToAny(o)
		}
		return idl.Seq(out...), nil
	})
	on("coalition_info", func(args []idl.Any) (idl.Any, error) {
		desc, syns, ok := cd.CoalitionInfo(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no coalition %s known here", args[0].Str))
		}
		return idl.Struct(
			idl.F("name", idl.String(args[0].Str)),
			idl.F("description", idl.String(desc)),
			idl.F("synonyms", idl.Strings(syns)),
		), nil
	})
	on("access_info", func(args []idl.Any) (idl.Any, error) {
		d, ok := cd.sourceAny(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no source %s known here", args[0].Str))
		}
		return d, nil
	})
	on("document", func(args []idl.Any) (idl.Any, error) {
		d, ok := cd.FindSource(args[0].Str)
		if !ok {
			return idl.Null(), userErr(fmt.Errorf("codb: no source %s known here", args[0].Str))
		}
		return idl.Struct(
			idl.F("name", idl.String(d.Name)),
			idl.F("documentation", idl.String(d.Documentation)),
			idl.F("html", idl.String(d.DocumentHTML)),
		), nil
	})
	on("links", func(args []idl.Any) (idl.Any, error) {
		links := cd.Links()
		out := make([]idl.Any, len(links))
		for i, l := range links {
			out[i] = l.ToAny()
		}
		return idl.Seq(out...), nil
	})
	on("advertise", func(args []idl.Any) (idl.Any, error) {
		d, err := DescriptorFromAny(args[1])
		if err != nil {
			return idl.Null(), userErr(err)
		}
		if err := cd.AddMember(args[0].Str, d); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	on("remove_member", func(args []idl.Any) (idl.Any, error) {
		if err := cd.RemoveMember(args[0].Str, args[1].Str); err != nil {
			return idl.Null(), userErr(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	// The gossip operations are declared in the IDL but registered only when
	// the servant is given an exchanger, so one built without it answers
	// exactly like a pre-gossip peer: BAD_OPERATION.
	if opts.Gossip != nil {
		on("gossip_pull", func(args []idl.Any) (idl.Any, error) {
			delta, digest, err := opts.Gossip.HandlePull([]byte(args[0].Str))
			if err != nil {
				return idl.Null(), userErr(err)
			}
			return idl.Struct(
				idl.F("delta", idl.String(string(delta))),
				idl.F("digest", idl.String(string(digest))),
			), nil
		})
		on("gossip_push", func(args []idl.Any) (idl.Any, error) {
			applied, err := opts.Gossip.HandlePush([]byte(args[0].Str))
			if err != nil {
				return idl.Null(), userErr(err)
			}
			return idl.Long(int64(applied)), nil
		})
	}
	return h
}

// Client is a typed client for a (possibly remote) co-database servant. The
// query processor works exclusively through this interface, so local and
// remote metadata are handled identically. A Client is stateless over its
// object reference and safe for concurrent use: the query layer's parallel
// member fan-out reuses one Client across many in-flight calls, which the
// ORB pipelines over a shared multiplexed IIOP connection.
type Client struct {
	ref *orb.ObjectRef
}

// NewClient wraps an object reference to a co-database servant.
func NewClient(ref *orb.ObjectRef) *Client { return &Client{ref: ref} }

// Ref returns the underlying object reference.
func (c *Client) Ref() *orb.ObjectRef { return c.ref }

// Owner asks for the owning database's name.
//
// All Client methods are context-first: the context carries trace parentage
// across the hop and its deadline bounds the exchange. Read-only metadata
// operations are idempotent, so transport failures retry under the client
// ORB's retry policy; mutations (DefineCoalition, Advertise, AddLink,
// RemoveMember) make exactly one attempt.
func (c *Client) Owner(ctx context.Context) (string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "owner")
	if err != nil {
		return "", err
	}
	return v.Str, nil
}

func (c *Client) matches(ctx context.Context, op, topic string) ([]Match, error) {
	v, err := c.ref.InvokeIdempotent(ctx, op, idl.String(topic))
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(v.Seq()))
	for _, item := range v.Seq() {
		out = append(out, MatchFromAny(item))
	}
	return out, nil
}

// FindCoalitions scores the remote co-database's coalitions against topic.
func (c *Client) FindCoalitions(ctx context.Context, topic string) ([]Match, error) {
	return c.matches(ctx, "find_coalitions", topic)
}

// FindLinks scores the remote co-database's service links against topic.
func (c *Client) FindLinks(ctx context.Context, topic string) ([]Match, error) {
	return c.matches(ctx, "find_links", topic)
}

// Coalitions lists the remote co-database's coalition classes.
func (c *Client) Coalitions(ctx context.Context) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "coalitions")
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// MemberOf lists the coalitions the remote owner belongs to.
func (c *Client) MemberOf(ctx context.Context) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "member_of")
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// SubCoalitions lists sub-coalitions of a coalition.
func (c *Client) SubCoalitions(ctx context.Context, coalition string, direct bool) ([]string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "subclasses", idl.String(coalition), idl.Bool(direct))
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}

// Instances lists a coalition's member descriptors in one round trip.
// Membership is metadata, bounded by the coalition's size, so it is not
// paged: cursors exist where rows flow, on the ISI.
func (c *Client) Instances(ctx context.Context, coalition string) ([]*SourceDescriptor, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "instances", idl.String(coalition))
	if err != nil {
		return nil, err
	}
	out := make([]*SourceDescriptor, 0, len(v.Seq()))
	for _, item := range v.Seq() {
		d, err := DescriptorFromAny(item)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// CoalitionInfo fetches a coalition's description and synonyms.
func (c *Client) CoalitionInfo(ctx context.Context, coalition string) (string, []string, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "coalition_info", idl.String(coalition))
	if err != nil {
		return "", nil, err
	}
	syns, _ := v.Get("synonyms")
	return v.GetString("description"), syns.StringSlice(), nil
}

// AccessInfo fetches a source descriptor by database name.
func (c *Client) AccessInfo(ctx context.Context, source string) (*SourceDescriptor, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "access_info", idl.String(source))
	if err != nil {
		return nil, err
	}
	return DescriptorFromAny(v)
}

// Document fetches a source's documentation URL and HTML body.
func (c *Client) Document(ctx context.Context, source string) (url, html string, err error) {
	v, err := c.ref.InvokeIdempotent(ctx, "document", idl.String(source))
	if err != nil {
		return "", "", err
	}
	return v.GetString("documentation"), v.GetString("html"), nil
}

// Links lists the remote co-database's service links.
func (c *Client) Links(ctx context.Context) ([]*ServiceLink, error) {
	v, err := c.ref.InvokeIdempotent(ctx, "links")
	if err != nil {
		return nil, err
	}
	out := make([]*ServiceLink, 0, len(v.Seq()))
	for _, item := range v.Seq() {
		l, err := LinkFromAny(item)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// Advertise adds a member descriptor to a remote coalition (dynamic join).
func (c *Client) Advertise(ctx context.Context, coalition string, d *SourceDescriptor) error {
	_, err := c.ref.InvokeCtx(ctx, "advertise", idl.String(coalition), d.ToAny())
	return err
}

// RemoveMember withdraws a database from a remote coalition.
func (c *Client) RemoveMember(ctx context.Context, coalition, source string) error {
	_, err := c.ref.InvokeCtx(ctx, "remove_member", idl.String(coalition), idl.String(source))
	return err
}
