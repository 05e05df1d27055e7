package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/orb"
	"repro/internal/wtl"
)

// Federation manages a set of nodes across the three ORB products. Its
// coalitions and service links are written by WebTassili statements the
// nodes run, so each co-database holds only what its owner may know.
type Federation struct {
	orbs  map[orb.Product]*orb.ORB
	nodes map[string]*Node // by lower-cased name

	coalitions map[string][]string // coalition -> member node names
	links      []LinkSpec
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
func (f *Federation) Coalitions() []string { return slices.Sorted(maps.Keys(f.coalitions)) }

// Members returns a coalition's member node names.
func (f *Federation) Members(coalition string) []string {
	return append([]string(nil), f.coalitions[coalition]...)
}

// Links lists the federation's service links.
func (f *Federation) Links() []LinkSpec { return append([]LinkSpec(nil), f.links...) }

// DefineCoalition forms a coalition of the named nodes with FormCoalition.
func (f *Federation) DefineCoalition(name, parent, description string, memberNames ...string) error {
	if _, exists := f.coalitions[name]; exists {
		return fmt.Errorf("core: coalition %s already defined", name)
	}
	members, err := f.lookup(memberNames)
	if err != nil {
		return fmt.Errorf("core: coalition %s: %w", name, err)
	}
	if err := FormCoalition(name, parent, description, members); err != nil {
		return err
	}
	f.coalitions[name] = append([]string(nil), memberNames...)
	return nil
}

// FormCoalition forms a coalition as its members would: each in turn runs
// Create Coalition (under the parent) and Join Coalition … At the first
// member's co-database, so all of them share every member's descriptor.
func FormCoalition(name, parent, description string, members []*Node) error {
	for _, n := range members {
		script := (&wtl.CreateCoalition{Name: name, Parent: parent, Description: description}).String() +
			(&wtl.JoinCoalition{Coalition: name, At: members[0].Descriptor.CoDBRef}).String()
		if err := n.NewSession().ExecScript(context.Background(), script, nil); err != nil {
			return fmt.Errorf("core: coalition %s at %s: %w", name, n.Config.Name, err)
		}
	}
	return nil
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

// AddLink records a service link the way its origin side would: each holder
// (every member of the origin coalition, or the origin database) runs
// Create Service Link … At the co-database of the target database, or of the
// target coalition's first member.
func (f *Federation) AddLink(spec LinkSpec) error {
	holders, err := f.linkEnd("origin", spec.FromKind, spec.From)
	if err != nil {
		return err
	}
	targets, err := f.linkEnd("target", spec.ToKind, spec.To)
	if err != nil {
		return err
	}
	stmt := (&wtl.CreateLink{Name: spec.Name, FromKind: spec.FromKind, From: spec.From,
		ToKind: spec.ToKind, To: spec.To, At: targets[0].Descriptor.CoDBRef,
		InfoType: spec.InfoType, Description: spec.Description}).String()
	for _, n := range holders {
		if err := n.NewSession().ExecScript(context.Background(), stmt, nil); err != nil {
			return fmt.Errorf("core: link %s at %s: %w", spec.Name, n.Config.Name, err)
		}
	}
	f.links = append(f.links, spec)
	return nil
}

// linkEnd lists the nodes one end of a link names: the members of a
// coalition, or a single database.
func (f *Federation) linkEnd(end, kind, name string) ([]*Node, error) {
	switch kind {
	case "database":
		return f.lookup([]string{name})
	case "coalition":
		if len(f.coalitions[name]) == 0 {
			return nil, fmt.Errorf("core: link %s coalition %s has no members", end, name)
		}
		return f.lookup(f.coalitions[name])
	}
	return nil, fmt.Errorf("core: link %s kind %q invalid", end, kind)
}

// lookup finds registered nodes by name.
func (f *Federation) lookup(names []string) ([]*Node, error) {
	out := make([]*Node, len(names))
	for i, name := range names {
		n, ok := f.Node(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown node %s", name)
		}
		out[i] = n
	}
	return out, nil
}

// Shutdown stops every ORB (and with them all servants).
func (f *Federation) Shutdown() {
	for _, o := range f.orbs {
		if o != nil {
			o.Shutdown()
		}
	}
}
