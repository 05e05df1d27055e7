// Package naming implements a CORBA-style Naming Service: a hierarchical
// registry that binds names (slash-separated paths such as
// "WebFINDIT/CoDatabases/RBH") to stringified IORs. It is itself exposed as
// an ORB servant, so any node in the federation — regardless of which ORB
// product hosts it — can resolve the objects of any other node, which is how
// the paper's communication layer "locates the set of servers that can
// perform the tasks".
package naming

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/idl"
	"repro/internal/orb"
)

// ObjectKey is the well-known object key of the naming service servant.
const ObjectKey = "NameService"

// CoDatabases and ISIs prefix the database name a node's servants are bound to.
const CoDatabases, ISIs = "WebFINDIT/CoDatabases/", "WebFINDIT/ISIs/"

// IDL is the interface definition of the naming service.
var IDL = idl.MustParse(`
module CosNaming {
    interface NamingContext {
        void bind(in string name, in string ior);
        void rebind(in string name, in string ior);
        string resolve(in string name);
        void unbind(in string name);
        sequence<any> list(in string prefix);
    };
};
`)[0]

// ErrNotFound distinguishes missing bindings from transport errors.
const errNotFound = "NotFound"
const errAlreadyBound = "AlreadyBound"

// Registry is the in-memory name tree. Names are flat paths with "/"
// separators; contexts are implicit (listing uses prefix matching), which
// matches how the reproduction uses the service.
type Registry struct {
	mu    sync.RWMutex
	bound map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{bound: make(map[string]string)}
}

// Bind adds a binding; it fails if the name is taken.
func (r *Registry) Bind(name, ior string) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.bound[name]; exists {
		return fmt.Errorf("naming: %s: name %q already bound", errAlreadyBound, name)
	}
	r.bound[name] = ior
	return nil
}

// Rebind adds or replaces a binding.
func (r *Registry) Rebind(name, ior string) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bound[name] = ior
	return nil
}

// Resolve returns the IOR bound to name.
func (r *Registry) Resolve(name string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ior, ok := r.bound[name]
	if !ok {
		return "", fmt.Errorf("naming: %s: no binding for %q", errNotFound, name)
	}
	return ior, nil
}

// Unbind removes a binding.
func (r *Registry) Unbind(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.bound[name]; !ok {
		return fmt.Errorf("naming: %s: no binding for %q", errNotFound, name)
	}
	delete(r.bound, name)
	return nil
}

// List returns the bound names under prefix, sorted. An empty prefix lists
// everything.
func (r *Registry) List(prefix string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n := range r.bound {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Len reports the number of bindings.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.bound)
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("naming: empty name")
	}
	if strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") || strings.Contains(name, "//") {
		return fmt.Errorf("naming: malformed name %q", name)
	}
	return nil
}

// NewServant wraps a Registry in an ORB servant implementing the
// CosNaming/NamingContext interface.
func NewServant(reg *Registry) orb.Servant {
	h := orb.NewHandler(IDL)
	h.On("bind", func(args []idl.Any) (idl.Any, error) {
		if err := reg.Bind(args[0].Str, args[1].Str); err != nil {
			return idl.Null(), classify(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.On("rebind", func(args []idl.Any) (idl.Any, error) {
		if err := reg.Rebind(args[0].Str, args[1].Str); err != nil {
			return idl.Null(), classify(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.On("resolve", func(args []idl.Any) (idl.Any, error) {
		ior, err := reg.Resolve(args[0].Str)
		if err != nil {
			return idl.Null(), classify(err)
		}
		return idl.String(ior), nil
	})
	h.On("unbind", func(args []idl.Any) (idl.Any, error) {
		if err := reg.Unbind(args[0].Str); err != nil {
			return idl.Null(), classify(err)
		}
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.On("list", func(args []idl.Any) (idl.Any, error) {
		return idl.Strings(reg.List(args[0].Str)), nil
	})
	return h
}

// classify maps registry errors to user exceptions so clients can
// distinguish NotFound from AlreadyBound.
func classify(err error) error {
	msg := err.Error()
	switch {
	case strings.Contains(msg, errNotFound):
		return &orb.UserException{Name: errNotFound, Message: msg}
	case strings.Contains(msg, errAlreadyBound):
		return &orb.UserException{Name: errAlreadyBound, Message: msg}
	default:
		return &orb.UserException{Name: "InvalidName", Message: msg}
	}
}

// Serve activates a fresh naming service on o and returns its registry and
// IOR.
func Serve(o *orb.ORB) (*Registry, *orb.IOR, error) {
	reg := NewRegistry()
	ior, err := o.Activate(ObjectKey, NewServant(reg))
	if err != nil {
		return nil, nil, fmt.Errorf("naming: activate: %w", err)
	}
	return reg, ior, nil
}

// Client is a typed client for a (possibly remote) naming service.
type Client struct {
	ref *orb.ObjectRef
}

// NewClient wraps an object reference to a naming service.
func NewClient(ref *orb.ObjectRef) *Client { return &Client{ref: ref} }

// ClientFor builds a client for the naming service hosted at addr.
func ClientFor(o *orb.ORB, addr string) (*Client, error) {
	host, port, err := splitAddr(addr)
	if err != nil {
		return nil, err
	}
	ior := &orb.IOR{RepoID: IDL.RepoID, Host: host, Port: port, ObjectKey: []byte(ObjectKey)}
	return &Client{ref: o.Resolve(ior)}, nil
}

func splitAddr(addr string) (string, uint16, error) {
	i := strings.LastIndex(addr, ":")
	if i < 0 {
		return "", 0, fmt.Errorf("naming: address %q missing port", addr)
	}
	var port int
	if _, err := fmt.Sscanf(addr[i+1:], "%d", &port); err != nil || port <= 0 || port > 65535 {
		return "", 0, fmt.Errorf("naming: bad port in %q", addr)
	}
	return addr[:i], uint16(port), nil
}

// Bind binds name to ior at the service.
func (c *Client) Bind(name, ior string) error {
	_, err := c.ref.Invoke("bind", idl.String(name), idl.String(ior))
	return err
}

// Rebind binds or replaces name at the service.
func (c *Client) Rebind(name, ior string) error {
	_, err := c.ref.Invoke("rebind", idl.String(name), idl.String(ior))
	return err
}

// Resolve looks up name at the service.
func (c *Client) Resolve(name string) (string, error) {
	v, err := c.ref.Invoke("resolve", idl.String(name))
	if err != nil {
		return "", err
	}
	return v.Str, nil
}

// ResolveRef resolves name and returns an object reference bound to o.
func (c *Client) ResolveRef(o *orb.ORB, name string) (*orb.ObjectRef, error) {
	s, err := c.Resolve(name)
	if err != nil {
		return nil, err
	}
	return o.ResolveString(s)
}

// Unbind removes name at the service.
func (c *Client) Unbind(name string) error {
	_, err := c.ref.Invoke("unbind", idl.String(name))
	return err
}

// List lists names under prefix at the service.
func (c *Client) List(prefix string) ([]string, error) {
	v, err := c.ref.Invoke("list", idl.String(prefix))
	if err != nil {
		return nil, err
	}
	return v.StringSlice(), nil
}
