package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/codb"
	"repro/internal/orb"
)

// Federation manages a set of nodes across the three ORB products and wires
// their co-databases into coalitions and service links. Knowledge placement
// follows the paper exactly: a coalition's class and member descriptors are
// replicated into the co-databases of its members only; a service link is
// recorded in the co-databases entitled to know it (the members of the
// origin coalition, or the origin database).
type Federation struct {
	orbs  map[orb.Product]*orb.ORB
	nodes map[string]*Node // by lower-cased name

	coalitions map[string][]string // coalition -> member node names
	parents    map[string]string   // coalition -> parent coalition ("" = top)
	descs      map[string]string   // coalition -> description
	links      []*codb.ServiceLink
}

// NewFederation boots the three ORB products on loopback. An optional base
// option set is applied to every ORB (its Product field is overridden per
// ORB); tests use it to disable colocation or enable timeouts federation-wide.
func NewFederation(base ...orb.Options) (*Federation, error) {
	var opts orb.Options
	if len(base) > 0 {
		opts = base[0]
	}
	f := &Federation{
		orbs:       make(map[orb.Product]*orb.ORB),
		nodes:      make(map[string]*Node),
		coalitions: make(map[string][]string),
		parents:    make(map[string]string),
		descs:      make(map[string]string),
	}
	for _, p := range []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker} {
		opts.Product = p
		o := orb.New(opts)
		if err := o.Listen("127.0.0.1:0"); err != nil {
			f.Shutdown()
			return nil, err
		}
		f.orbs[p] = o
	}
	return f, nil
}

// ORB returns the federation's ORB instance for a product.
func (f *Federation) ORB(p orb.Product) *orb.ORB { return f.orbs[p] }

// AddNode builds a node on the given ORB product and registers it.
func (f *Federation) AddNode(product orb.Product, cfg NodeConfig) (*Node, error) {
	o, ok := f.orbs[product]
	if !ok {
		return nil, fmt.Errorf("core: unknown ORB product %s", product)
	}
	key := strings.ToLower(cfg.Name)
	if _, exists := f.nodes[key]; exists {
		return nil, fmt.Errorf("core: node %s already registered", cfg.Name)
	}
	cfg.ORB = o
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	f.nodes[key] = n
	return n, nil
}

// Node returns a registered node by name.
func (f *Federation) Node(name string) (*Node, bool) {
	n, ok := f.nodes[strings.ToLower(name)]
	return n, ok
}

// NodeNames lists registered nodes, sorted.
func (f *Federation) NodeNames() []string {
	out := make([]string, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, n.Config.Name)
	}
	sort.Strings(out)
	return out
}

// Coalitions lists defined coalitions, sorted.
func (f *Federation) Coalitions() []string {
	out := make([]string, 0, len(f.coalitions))
	for c := range f.coalitions {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Members returns a coalition's member node names.
func (f *Federation) Members(coalition string) []string {
	return append([]string(nil), f.coalitions[coalition]...)
}

// Links lists the federation's service links.
func (f *Federation) Links() []*codb.ServiceLink {
	return append([]*codb.ServiceLink(nil), f.links...)
}

// DefineCoalition declares a coalition with the given members: the coalition
// class is created in every member's co-database and every member's
// descriptor is advertised into every member's copy ("databases
// participating in the coalition share descriptions").
func (f *Federation) DefineCoalition(name, parent, description string, memberNames ...string) error {
	if _, exists := f.coalitions[name]; exists {
		return fmt.Errorf("core: coalition %s already defined", name)
	}
	members := make([]*Node, 0, len(memberNames))
	for _, m := range memberNames {
		n, ok := f.Node(m)
		if !ok {
			return fmt.Errorf("core: coalition %s: unknown node %s", name, m)
		}
		members = append(members, n)
	}
	for _, n := range members {
		if err := f.ensureCoalitionClass(n, name, parent, description); err != nil {
			return err
		}
		for _, other := range members {
			if err := n.CoDB.AddMember(name, other.Descriptor); err != nil {
				return fmt.Errorf("core: coalition %s at %s: %w", name, n.Config.Name, err)
			}
		}
	}
	f.coalitions[name] = append([]string(nil), memberNames...)
	f.parents[name] = parent
	f.descs[name] = description
	return nil
}

// ensureCoalitionClass creates the coalition class (and its ancestors) in a
// node's co-database if missing.
func (f *Federation) ensureCoalitionClass(n *Node, name, parent, description string) error {
	if n.CoDB.HasCoalition(name) {
		return nil
	}
	if parent != "" && !n.CoDB.HasCoalition(parent) {
		if err := f.ensureCoalitionClass(n, parent, f.parents[parent], f.descs[parent]); err != nil {
			return err
		}
	}
	return n.CoDB.DefineCoalition(name, parent, description)
}

// LinkSpec declares a service link between coalitions and/or databases.
type LinkSpec struct {
	Name        string
	FromKind    string // "coalition" or "database"
	From        string
	ToKind      string
	To          string
	Description string
	InfoType    string
}

// AddLink records a service link in the co-databases of the origin side
// (all members of the origin coalition, or the origin database), carrying a
// reference to a co-database that can answer for the target side.
func (f *Federation) AddLink(spec LinkSpec) error {
	ref, err := f.targetRef(spec.ToKind, spec.To)
	if err != nil {
		return err
	}
	link := &codb.ServiceLink{
		Name:        spec.Name,
		FromKind:    spec.FromKind,
		From:        spec.From,
		ToKind:      spec.ToKind,
		To:          spec.To,
		Description: spec.Description,
		InfoType:    spec.InfoType,
		CoDBRef:     ref,
	}
	holders, err := f.originNodes(spec.FromKind, spec.From)
	if err != nil {
		return err
	}
	for _, n := range holders {
		if err := n.CoDB.AddLink(link); err != nil {
			return fmt.Errorf("core: link %s at %s: %w", spec.Name, n.Config.Name, err)
		}
	}
	f.links = append(f.links, link)
	return nil
}

// targetRef finds the co-database reference of the link target.
func (f *Federation) targetRef(kind, name string) (string, error) {
	switch kind {
	case "database":
		n, ok := f.Node(name)
		if !ok {
			return "", fmt.Errorf("core: link target database %s unknown", name)
		}
		return n.Descriptor.CoDBRef, nil
	case "coalition":
		members := f.coalitions[name]
		if len(members) == 0 {
			return "", fmt.Errorf("core: link target coalition %s has no members", name)
		}
		n, _ := f.Node(members[0])
		return n.Descriptor.CoDBRef, nil
	}
	return "", fmt.Errorf("core: link target kind %q invalid", kind)
}

// originNodes lists the nodes whose co-databases record the link.
func (f *Federation) originNodes(kind, name string) ([]*Node, error) {
	switch kind {
	case "database":
		n, ok := f.Node(name)
		if !ok {
			return nil, fmt.Errorf("core: link origin database %s unknown", name)
		}
		return []*Node{n}, nil
	case "coalition":
		memberNames := f.coalitions[name]
		if len(memberNames) == 0 {
			return nil, fmt.Errorf("core: link origin coalition %s has no members", name)
		}
		out := make([]*Node, 0, len(memberNames))
		for _, m := range memberNames {
			n, _ := f.Node(m)
			out = append(out, n)
		}
		return out, nil
	}
	return nil, fmt.Errorf("core: link origin kind %q invalid", kind)
}

// Shutdown stops every ORB (and with them all servants).
func (f *Federation) Shutdown() {
	for _, o := range f.orbs {
		if o != nil {
			o.Shutdown()
		}
	}
}
