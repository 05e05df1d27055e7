package simtest

import (
	"fmt"
	"math/rand"
	"sort"
)

// OpKind enumerates generated workload operations.
type OpKind int

const (
	// OpQuery decomposes a typed coalition query from a member node.
	OpQuery OpKind = iota
	// OpRemoteQuery runs the same query from a node that never belonged to
	// the coalition: it enters through a peer's co-database, so the plan and
	// member list it caches are a peer's answers.
	OpRemoteQuery
	// OpInstances lists a coalition's members from a member node.
	OpInstances
	// OpFindKnown resolves a topic the issuing node knows locally.
	OpFindKnown
	// OpFindUnknown resolves a topic nobody offers (stage-3 peer sweep).
	OpFindUnknown
	// OpJoin joins the issuing node into a coalition it never belonged to.
	OpJoin
	// OpLeave withdraws the issuing node from a coalition.
	OpLeave
	// OpPartition cuts one node-pair link.
	OpPartition
	// OpHealAll restores every link.
	OpHealAll
)

func (k OpKind) String() string {
	switch k {
	case OpQuery:
		return "query"
	case OpRemoteQuery:
		return "remote-query"
	case OpInstances:
		return "instances"
	case OpFindKnown:
		return "find-known"
	case OpFindUnknown:
		return "find-unknown"
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpPartition:
		return "partition"
	case OpHealAll:
		return "heal-all"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one generated workload step.
type Op struct {
	Kind      OpKind
	Node      int    // issuing node (or partition end A)
	B         int    // partition end B
	Coalition string // target coalition, where applicable
	Topic     string // discovery topic for find ops
}

func (o Op) String() string {
	switch o.Kind {
	case OpPartition:
		return fmt.Sprintf("partition n%d|n%d", o.Node, o.B)
	case OpHealAll:
		return "heal-all"
	case OpFindUnknown:
		return fmt.Sprintf("find-unknown n%d %q", o.Node, o.Topic)
	default:
		return fmt.Sprintf("%s n%d %s", o.Kind, o.Node, o.Coalition)
	}
}

// Gen produces a seeded random workload that stays inside the envelope the
// flat oracle can predict exactly. The constraints, and why they exist:
//
//   - Queries, Instances and Find target a coalition through one of its
//     *current members*: a member's co-database copy of the coalition is
//     kept exact by the Join/Leave replication protocol, while an
//     ex-member's copy goes stale the moment it leaves (nothing advertises
//     to non-members).
//   - Join only targets coalitions with no ex-members anywhere ("stale
//     free"): the joiner's entry-point search takes the first peer knowing
//     the class, and an ex-member's stale member list would make the
//     advertise set diverge from the true membership.
//   - Join/Leave/FindUnknown only run with no active partitions, so their
//     fan-outs succeed and the oracle needs no reachability model for them.
//   - RemoteQuery runs with no active partitions, from a node that was never
//     a member, into a stale-free coalition: every co-database that knows
//     the coalition then holds its true member list, whichever the
//     entry-point search lands on.
//   - Every coalition keeps at least one member, so queries stay routable.
type Gen struct {
	rng   *rand.Rand
	steps int
}

// NewGen returns a generator over its own seeded stream (independent of the
// topology stream, so adding ops never reshuffles the topology).
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed ^ 0x5eed5eed))}
}

// Next picks the next operation given the oracle's current state.
func (g *Gen) Next(o *Oracle) Op {
	g.steps++
	for attempt := 0; attempt < 8; attempt++ {
		kind := g.pickKind(o)
		if op, ok := g.tryBuild(kind, o); ok {
			return op
		}
	}
	// Always-feasible fallback: query a coalition through one member.
	op, _ := g.tryBuild(OpQuery, o)
	return op
}

func (g *Gen) pickKind(o *Oracle) OpKind {
	r := g.rng.Intn(100)
	switch {
	case r < 27:
		return OpQuery
	case r < 35:
		return OpRemoteQuery
	case r < 50:
		return OpInstances
	case r < 60:
		return OpFindKnown
	case r < 67:
		return OpFindUnknown
	case r < 77:
		return OpJoin
	case r < 84:
		return OpLeave
	case r < 94:
		return OpPartition
	default:
		return OpHealAll
	}
}

func (g *Gen) tryBuild(kind OpKind, o *Oracle) (Op, bool) {
	switch kind {
	case OpQuery, OpInstances, OpFindKnown:
		c, m, ok := g.pickMemberOf(o, 1)
		if !ok {
			return Op{}, false
		}
		return Op{Kind: kind, Node: m, Coalition: c, Topic: c}, true
	case OpFindUnknown:
		if o.Partitioned() {
			return Op{}, false
		}
		return Op{
			Kind:  OpFindUnknown,
			Node:  g.rng.Intn(o.NumNodes),
			Topic: fmt.Sprintf("zzznothing%d", g.steps),
		}, true
	case OpJoin, OpRemoteQuery:
		if o.Partitioned() {
			return Op{}, false
		}
		var cands []Op
		for _, c := range o.CoalitionNames() {
			if c == BaseCoalition || !o.StaleFree(c) {
				continue
			}
			for m := 0; m < o.NumNodes; m++ {
				if !o.Ever(c, m) {
					cands = append(cands, Op{Kind: kind, Node: m, Coalition: c})
				}
			}
		}
		return g.pickOp(cands)
	case OpLeave:
		if o.Partitioned() {
			return Op{}, false
		}
		var cands []Op
		for _, c := range o.CoalitionNames() {
			if c == BaseCoalition || len(o.MembersOf(c)) < 2 {
				continue
			}
			for _, m := range o.MembersOf(c) {
				cands = append(cands, Op{Kind: OpLeave, Node: m, Coalition: c})
			}
		}
		return g.pickOp(cands)
	case OpPartition:
		var cands []Op
		for a := 0; a < o.NumNodes; a++ {
			for b := a + 1; b < o.NumNodes; b++ {
				if !o.PartitionedPair(a, b) {
					cands = append(cands, Op{Kind: OpPartition, Node: a, B: b})
				}
			}
		}
		return g.pickOp(cands)
	case OpHealAll:
		if !o.Partitioned() {
			return Op{}, false
		}
		return Op{Kind: OpHealAll}, true
	}
	return Op{}, false
}

// pickMemberOf selects a coalition with at least minMembers members and one
// of its members, uniformly under the generator's stream.
func (g *Gen) pickMemberOf(o *Oracle, minMembers int) (string, int, bool) {
	var names []string
	for _, c := range o.CoalitionNames() {
		if c != BaseCoalition && len(o.MembersOf(c)) >= minMembers {
			names = append(names, c)
		}
	}
	if len(names) == 0 {
		return "", 0, false
	}
	sort.Strings(names)
	c := names[g.rng.Intn(len(names))]
	members := o.MembersOf(c)
	return c, members[g.rng.Intn(len(members))], true
}

func (g *Gen) pickOp(cands []Op) (Op, bool) {
	if len(cands) == 0 {
		return Op{}, false
	}
	return cands[g.rng.Intn(len(cands))], true
}
