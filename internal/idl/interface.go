package idl

import (
	"fmt"
	"sort"
	"sync"
)

// ParamDir is the direction of an operation parameter.
type ParamDir byte

// Parameter directions.
const (
	In ParamDir = iota
	Out
	InOut
)

func (d ParamDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "inout"
	}
}

// Param describes one operation parameter.
type Param struct {
	Dir  ParamDir
	Kind Kind
	Name string
}

// Operation describes one operation of an interface.
type Operation struct {
	Name   string
	Result Kind
	Params []Param
	Oneway bool
}

// InCount returns the number of in/inout parameters (those carried in a
// request body).
func (op *Operation) InCount() int {
	n := 0
	for _, p := range op.Params {
		if p.Dir == In || p.Dir == InOut {
			n++
		}
	}
	return n
}

// Signature renders the operation in IDL syntax.
func (op *Operation) Signature() string {
	s := op.Result.String() + " " + op.Name + "("
	for i, p := range op.Params {
		if i > 0 {
			s += ", "
		}
		s += p.Dir.String() + " " + p.Kind.String() + " " + p.Name
	}
	return s + ")"
}

// Interface describes a remote object interface: a repository ID (in the
// CORBA "IDL:name:1.0" convention) and a set of operations.
type Interface struct {
	Name   string
	RepoID string
	Ops    map[string]*Operation
}

// NewInterface creates an interface with the conventional repository ID.
func NewInterface(name string) *Interface {
	return &Interface{
		Name:   name,
		RepoID: "IDL:" + name + ":1.0",
		Ops:    make(map[string]*Operation),
	}
}

// Op returns the named operation, or an error naming the interface.
func (it *Interface) Op(name string) (*Operation, error) {
	op, ok := it.Ops[name]
	if !ok {
		return nil, fmt.Errorf("idl: interface %s has no operation %q", it.Name, name)
	}
	return op, nil
}

// Repository is a thread-safe interface repository, the ORB-local registry
// of known interfaces keyed by repository ID.
type Repository struct {
	mu    sync.RWMutex
	byID  map[string]*Interface
	byNam map[string]*Interface
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{byID: make(map[string]*Interface), byNam: make(map[string]*Interface)}
}

// Register adds an interface; re-registering the same repo ID replaces it.
func (r *Repository) Register(it *Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[it.RepoID] = it
	r.byNam[it.Name] = it
}

// Lookup returns the interface with the given repository ID.
func (r *Repository) Lookup(repoID string) (*Interface, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	it, ok := r.byID[repoID]
	return it, ok
}

// Names lists registered interface names, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byNam))
	for n := range r.byNam {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
