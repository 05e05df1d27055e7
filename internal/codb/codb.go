package codb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/idl"
	"repro/internal/oodb"
)

// Schema class names used by every co-database.
const (
	ClassInformationType = "InformationType"
	ClassCoalitionInfo   = "CoalitionDescriptor"
	ClassServiceLink     = "ServiceLink"
	ClassCoalitionLink   = "CoalitionLink"
	ClassDatabaseLink    = "DatabaseLink"
)

// CoDatabase is the metadata database attached to one participating
// database. It holds only what its owner is entitled to know: the coalitions
// the owner belongs to (with their member descriptors), and the service
// links of those coalitions and of the owner itself — the partial-knowledge
// property the paper's discovery algorithm depends on.
type CoDatabase struct {
	owner     string
	db        *oodb.DB
	ownerDesc *SourceDescriptor
	// version is the monotonic schema version: every successful mutation of
	// the coalition lattice, membership or link set bumps it. Gossip carries
	// it to every peer, and metadata caches serve an answer only while its
	// source's version is the one the answer was fetched under.
	version atomic.Uint64
}

// New creates a co-database for the named owner database and bootstraps the
// standard schema.
func New(owner string) *CoDatabase {
	cd := &CoDatabase{owner: owner, db: oodb.NewDB("codb-" + owner)}
	must := func(_ *oodb.Class, err error) {
		if err != nil {
			panic("codb: bootstrap: " + err.Error())
		}
	}
	// Root of the coalition lattice. Instances of coalition classes are
	// source descriptors, so descriptor attributes live on the root.
	must(cd.db.DefineClass(ClassInformationType, "",
		oodb.Attribute{Name: "Name", Type: oodb.AttrString},
		oodb.Attribute{Name: "InformationType", Type: oodb.AttrString},
		oodb.Attribute{Name: "Documentation", Type: oodb.AttrString},
		oodb.Attribute{Name: "DocumentHTML", Type: oodb.AttrString},
		oodb.Attribute{Name: "Location", Type: oodb.AttrString},
		oodb.Attribute{Name: "Wrapper", Type: oodb.AttrString},
		oodb.Attribute{Name: "ISIRef", Type: oodb.AttrString},
		oodb.Attribute{Name: "CoDBRef", Type: oodb.AttrString},
		oodb.Attribute{Name: "Engine", Type: oodb.AttrString},
		oodb.Attribute{Name: "ORB", Type: oodb.AttrString},
		oodb.Attribute{Name: "InterfaceJSON", Type: oodb.AttrString},
	))
	// Class-level coalition metadata (the engine has no class attributes).
	must(cd.db.DefineClass(ClassCoalitionInfo, "",
		oodb.Attribute{Name: "Name", Type: oodb.AttrString},
		oodb.Attribute{Name: "Description", Type: oodb.AttrString},
		oodb.Attribute{Name: "Synonyms", Type: oodb.AttrStringList},
	))
	// Service-link sub-schema, with the paper's two subclasses.
	must(cd.db.DefineClass(ClassServiceLink, "",
		oodb.Attribute{Name: "Name", Type: oodb.AttrString},
		oodb.Attribute{Name: "FromKind", Type: oodb.AttrString},
		oodb.Attribute{Name: "From", Type: oodb.AttrString},
		oodb.Attribute{Name: "ToKind", Type: oodb.AttrString},
		oodb.Attribute{Name: "To", Type: oodb.AttrString},
		oodb.Attribute{Name: "Description", Type: oodb.AttrString},
		oodb.Attribute{Name: "InfoType", Type: oodb.AttrString},
		oodb.Attribute{Name: "CoDBRef", Type: oodb.AttrString},
	))
	must(cd.db.DefineClass(ClassCoalitionLink, ClassServiceLink))
	must(cd.db.DefineClass(ClassDatabaseLink, ClassServiceLink))
	return cd
}

// Owner returns the name of the database this co-database is attached to.
func (cd *CoDatabase) Owner() string { return cd.owner }

// DB exposes the underlying object database (read-mostly; used by the
// browser layer and tests).
func (cd *CoDatabase) DB() *oodb.DB { return cd.db }

// Version returns the monotonic schema version. It starts at 0 for a fresh
// (or restored) co-database and increases on every successful mutation of
// coalitions, members or links.
func (cd *CoDatabase) Version() uint64 { return cd.version.Load() }

// bump records a schema mutation.
func (cd *CoDatabase) bump() { cd.version.Add(1) }

// reserved class names cannot be coalition names.
func isReserved(name string) bool {
	switch strings.ToLower(name) {
	case strings.ToLower(ClassInformationType), strings.ToLower(ClassCoalitionInfo),
		strings.ToLower(ClassServiceLink), strings.ToLower(ClassCoalitionLink),
		strings.ToLower(ClassDatabaseLink):
		return true
	}
	return false
}

// DefineCoalition declares a coalition class. parent is "" for a top-level
// coalition (directly under InformationType) or the name of an enclosing
// coalition for topic specialisation.
func (cd *CoDatabase) DefineCoalition(name, parent, description string, synonyms ...string) error {
	if isReserved(name) {
		return fmt.Errorf("codb: %s is a reserved class name", name)
	}
	super := ClassInformationType
	if parent != "" {
		if _, ok := cd.db.Class(parent); !ok {
			return fmt.Errorf("codb: parent coalition %s not known here", parent)
		}
		super = parent
	}
	if _, err := cd.db.DefineClass(name, super); err != nil {
		return err
	}
	_, err := cd.db.NewObject(ClassCoalitionInfo, map[string]any{
		"Name":        name,
		"Description": description,
		"Synonyms":    synonyms,
	})
	if err == nil {
		cd.bump()
	}
	return err
}

// HasCoalition reports whether the coalition class exists here.
func (cd *CoDatabase) HasCoalition(name string) bool {
	if isReserved(name) {
		return false
	}
	c, ok := cd.db.Class(name)
	if !ok {
		return false
	}
	root, _ := cd.db.Class(ClassInformationType)
	return c.IsSubclassOf(root) && c.Name() != ClassInformationType
}

// Coalitions lists all coalition classes known here, sorted.
func (cd *CoDatabase) Coalitions() []string {
	subs, err := cd.db.SubClasses(ClassInformationType, false)
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(subs))
	for _, c := range subs {
		out = append(out, c.Name())
	}
	return out
}

// CoalitionInfo returns a coalition's description and synonyms.
func (cd *CoDatabase) CoalitionInfo(name string) (description string, synonyms []string, ok bool) {
	o, err := cd.db.SelectFirst(ClassCoalitionInfo, false, func(o *oodb.Object) bool {
		return strings.EqualFold(o.String("Name"), name)
	})
	if err != nil || o == nil {
		return "", nil, false
	}
	return o.String("Description"), o.Strings("Synonyms"), true
}

// SubCoalitions lists the coalitions directly (or transitively) below name.
func (cd *CoDatabase) SubCoalitions(name string, direct bool) ([]string, error) {
	if !cd.HasCoalition(name) {
		return nil, fmt.Errorf("codb: no coalition %s known here", name)
	}
	subs, err := cd.db.SubClasses(name, direct)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(subs))
	for _, c := range subs {
		out = append(out, c.Name())
	}
	return out, nil
}

func descriptorAttrs(d *SourceDescriptor) map[string]any {
	return map[string]any{
		"Name":            d.Name,
		"InformationType": d.InformationType,
		"Documentation":   d.Documentation,
		"DocumentHTML":    d.DocumentHTML,
		"Location":        d.Location,
		"Wrapper":         d.Wrapper,
		"ISIRef":          d.ISIRef,
		"CoDBRef":         d.CoDBRef,
		"Engine":          d.Engine,
		"ORB":             d.ORB,
		"InterfaceJSON":   marshalInterface(d.Interface),
	}
}

func objectToDescriptor(o *oodb.Object) *SourceDescriptor {
	d := storedDescriptor(o)
	d.Interface = unmarshalInterface(o.String("InterfaceJSON"))
	return d
}

// storedDescriptor reads a descriptor object's fields but its interface.
func storedDescriptor(o *oodb.Object) *SourceDescriptor {
	return &SourceDescriptor{
		Name:            o.String("Name"),
		InformationType: o.String("InformationType"),
		Documentation:   o.String("Documentation"),
		DocumentHTML:    o.String("DocumentHTML"),
		Location:        o.String("Location"),
		Wrapper:         o.String("Wrapper"),
		ISIRef:          o.String("ISIRef"),
		CoDBRef:         o.String("CoDBRef"),
		Engine:          o.String("Engine"),
		ORB:             o.String("ORB"),
	}
}

// objectToAny packs a descriptor object for ORB transport. The stored
// interface text goes out as it is: it is what ToAny would encode after
// decoding it, byte for byte, without the two JSON passes.
func objectToAny(o *oodb.Object) idl.Any {
	return storedDescriptor(o).toAny(o.String("InterfaceJSON"))
}

// ErrAlreadyMember is the error AddMember wraps when the coalition already
// lists the database.
var ErrAlreadyMember = errors.New("already a member")

// AddMember advertises a source descriptor as an instance of a coalition.
func (cd *CoDatabase) AddMember(coalition string, d *SourceDescriptor) error {
	if !cd.HasCoalition(coalition) {
		return fmt.Errorf("codb: no coalition %s known here", coalition)
	}
	if d.Name == "" {
		return fmt.Errorf("codb: source descriptor needs a name")
	}
	if existing, _ := cd.member(coalition, d.Name); existing != nil {
		return fmt.Errorf("codb: %s is %w of %s", d.Name, ErrAlreadyMember, coalition)
	}
	_, err := cd.db.NewObject(coalition, descriptorAttrs(d))
	if err == nil {
		cd.bump()
	}
	return err
}

func (cd *CoDatabase) member(coalition, name string) (*oodb.Object, error) {
	return cd.db.SelectFirst(coalition, true, func(o *oodb.Object) bool {
		return strings.EqualFold(o.String("Name"), name)
	})
}

// RemoveMember withdraws a database from a coalition (the paper's "sites
// join and leave these clusters at their own discretion").
func (cd *CoDatabase) RemoveMember(coalition, name string) error {
	if !cd.HasCoalition(coalition) {
		return fmt.Errorf("codb: no coalition %s known here", coalition)
	}
	o, err := cd.member(coalition, name)
	if err != nil {
		return err
	}
	if o == nil {
		return fmt.Errorf("codb: %s is not a member of %s", name, coalition)
	}
	if err := cd.db.Delete(o.ID()); err != nil {
		return err
	}
	cd.bump()
	return nil
}

// Members lists a coalition's member descriptors (including sub-coalition
// members), sorted by name.
func (cd *CoDatabase) Members(coalition string) ([]*SourceDescriptor, error) {
	objs, err := cd.memberObjects(coalition)
	if err != nil {
		return nil, err
	}
	out := make([]*SourceDescriptor, len(objs))
	for i, o := range objs {
		out[i] = objectToDescriptor(o)
	}
	return out, nil
}

// memberObjects lists the descriptor objects behind Members, in its order.
func (cd *CoDatabase) memberObjects(coalition string) ([]*oodb.Object, error) {
	if !cd.HasCoalition(coalition) {
		return nil, fmt.Errorf("codb: no coalition %s known here", coalition)
	}
	objs, err := cd.db.Extent(coalition, true)
	if err != nil {
		return nil, err
	}
	type member struct {
		name string
		o    *oodb.Object
	}
	ms := make([]member, 0, len(objs))
	seen := make(map[string]bool, len(objs))
	for _, o := range objs {
		// A database advertised in both a coalition and one of its
		// sub-coalitions is listed once.
		name := o.String("Name")
		key := strings.ToLower(name)
		if seen[key] {
			continue
		}
		seen[key] = true
		ms = append(ms, member{name, o})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]*oodb.Object, len(ms))
	for i, m := range ms {
		out[i] = m.o
	}
	return out, nil
}

// SetOwnerDescriptor records the owner database's own access information,
// which the paper says every co-database stores regardless of coalition
// membership.
func (cd *CoDatabase) SetOwnerDescriptor(d *SourceDescriptor) {
	cd.ownerDesc = d
	cd.bump()
}

// FindSource locates a descriptor by database name: in the coalition
// lattice, or the owner's own descriptor.
func (cd *CoDatabase) FindSource(name string) (*SourceDescriptor, bool) {
	if o := cd.sourceObject(name); o != nil {
		return objectToDescriptor(o), true
	}
	if cd.ownerDesc != nil && strings.EqualFold(cd.ownerDesc.Name, name) {
		return cd.ownerDesc, true
	}
	return nil, false
}

// sourceAny is FindSource packed for ORB transport.
func (cd *CoDatabase) sourceAny(name string) (idl.Any, bool) {
	if o := cd.sourceObject(name); o != nil {
		return objectToAny(o), true
	}
	if cd.ownerDesc != nil && strings.EqualFold(cd.ownerDesc.Name, name) {
		return cd.ownerDesc.ToAny(), true
	}
	return idl.Null(), false
}

// sourceObject finds a descriptor object by database name in the coalition
// lattice (nil when there is none).
func (cd *CoDatabase) sourceObject(name string) *oodb.Object {
	o, err := cd.db.SelectFirst(ClassInformationType, true, func(o *oodb.Object) bool {
		return strings.EqualFold(o.String("Name"), name)
	})
	if err != nil {
		return nil
	}
	return o
}

// MemberOf lists the coalitions the owner database is a member of (the
// shallow extents containing its descriptor).
func (cd *CoDatabase) MemberOf() []string {
	var out []string
	for _, coalition := range cd.Coalitions() {
		objs, err := cd.db.Extent(coalition, false)
		if err != nil {
			continue
		}
		for _, o := range objs {
			if strings.EqualFold(o.String("Name"), cd.owner) {
				out = append(out, coalition)
				break
			}
		}
	}
	return out
}

// AddLink records a service link. Links whose From is a coalition are
// CoalitionLink instances, otherwise DatabaseLink (the paper's two
// sub-schemas).
func (cd *CoDatabase) AddLink(l *ServiceLink) error {
	if l.Name == "" {
		return fmt.Errorf("codb: service link needs a name")
	}
	class := ClassDatabaseLink
	if l.FromKind == "coalition" {
		class = ClassCoalitionLink
	}
	if existing := cd.findLink(l.Name); existing != nil {
		return fmt.Errorf("codb: service link %s already recorded", l.Name)
	}
	_, err := cd.db.NewObject(class, map[string]any{
		"Name":        l.Name,
		"FromKind":    l.FromKind,
		"From":        l.From,
		"ToKind":      l.ToKind,
		"To":          l.To,
		"Description": l.Description,
		"InfoType":    l.InfoType,
		"CoDBRef":     l.CoDBRef,
	})
	if err == nil {
		cd.bump()
	}
	return err
}

func (cd *CoDatabase) findLink(name string) *oodb.Object {
	o, _ := cd.db.SelectFirst(ClassServiceLink, true, func(o *oodb.Object) bool {
		return strings.EqualFold(o.String("Name"), name)
	})
	return o
}

func objectToLink(o *oodb.Object) *ServiceLink {
	return &ServiceLink{
		Name:        o.String("Name"),
		FromKind:    o.String("FromKind"),
		From:        o.String("From"),
		ToKind:      o.String("ToKind"),
		To:          o.String("To"),
		Description: o.String("Description"),
		InfoType:    o.String("InfoType"),
		CoDBRef:     o.String("CoDBRef"),
	}
}

// Links lists all service links known here, sorted by name.
func (cd *CoDatabase) Links() []*ServiceLink {
	objs, err := cd.db.Extent(ClassServiceLink, true)
	if err != nil {
		return nil
	}
	out := make([]*ServiceLink, 0, len(objs))
	for _, o := range objs {
		out = append(out, objectToLink(o))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match is one discovery hit: a coalition (or link target) that appears to
// offer the requested information, with an explanation for user education.
type Match struct {
	Coalition string  // coalition (or target) name
	Score     float64 // fraction of query tokens matched
	Via       string  // how it was found: "local", "link:<name>"
	CoDBRef   string  // co-database that can expand this match ("" = here)
}

// tokenise lower-cases and splits a topic phrase into word tokens, dropping
// connective noise words so "Research and Medical" matches both topics.
func tokenise(s string) []string {
	drop := map[string]bool{"and": true, "or": true, "the": true, "of": true, "in": true}
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if !drop[f] {
			out = append(out, f)
		}
	}
	return out
}

// vocabulary builds the searchable token set of a coalition: its name, its
// description and synonyms, and the information types of its members.
func (cd *CoDatabase) vocabulary(coalition string) map[string]bool {
	vocab := make(map[string]bool)
	add := func(s string) {
		for _, tok := range tokenise(s) {
			vocab[tok] = true
		}
	}
	add(coalition)
	if desc, syns, ok := cd.CoalitionInfo(coalition); ok {
		add(desc)
		for _, s := range syns {
			add(s)
		}
	}
	if members, err := cd.memberObjects(coalition); err == nil {
		for _, o := range members {
			add(o.String("InformationType"))
		}
	}
	return vocab
}

// FindCoalitions scores the locally known coalitions against an information
// topic. This is the first step of the paper's resolution algorithm; the
// query processor escalates to links and peers when it comes back empty.
func (cd *CoDatabase) FindCoalitions(topic string) []Match {
	toks := tokenise(topic)
	if len(toks) == 0 {
		return nil
	}
	var out []Match
	for _, coalition := range cd.Coalitions() {
		vocab := cd.vocabulary(coalition)
		hit := 0
		for _, tok := range toks {
			if vocab[tok] {
				hit++
			}
		}
		if hit > 0 {
			out = append(out, Match{
				Coalition: coalition,
				Score:     float64(hit) / float64(len(toks)),
				Via:       "local",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Coalition < out[j].Coalition
	})
	return out
}

// FindLinks scores the locally known service links against a topic,
// returning matches that point at remote information spaces.
func (cd *CoDatabase) FindLinks(topic string) []Match {
	toks := tokenise(topic)
	if len(toks) == 0 {
		return nil
	}
	var out []Match
	for _, l := range cd.Links() {
		vocab := make(map[string]bool)
		for _, tok := range tokenise(l.To + " " + l.InfoType + " " + l.Description) {
			vocab[tok] = true
		}
		hit := 0
		for _, tok := range toks {
			if vocab[tok] {
				hit++
			}
		}
		if hit > 0 {
			out = append(out, Match{
				Coalition: l.To,
				Score:     float64(hit) / float64(len(toks)),
				Via:       "link:" + l.Name,
				CoDBRef:   l.CoDBRef,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Coalition < out[j].Coalition
	})
	return out
}

// ---- Persistence ----

// codbSnapshot is the serialised form of a co-database.
type codbSnapshot struct {
	Owner     string            `json:"owner"`
	OwnerDesc *SourceDescriptor `json:"owner_descriptor,omitempty"`
	DB        json.RawMessage   `json:"db"`
}

// Snapshot serialises the co-database (schema, coalition lattice, members,
// links, owner descriptor) to JSON, so a node can persist its metadata
// across restarts.
func (cd *CoDatabase) Snapshot() ([]byte, error) {
	dbData, err := cd.db.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("codb: snapshot: %w", err)
	}
	return json.MarshalIndent(codbSnapshot{
		Owner:     cd.owner,
		OwnerDesc: cd.ownerDesc,
		DB:        dbData,
	}, "", "  ")
}

// Restore rebuilds a co-database from a Snapshot.
func Restore(data []byte) (*CoDatabase, error) {
	var snap codbSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("codb: restore: %w", err)
	}
	db, err := oodb.Load(snap.DB)
	if err != nil {
		return nil, fmt.Errorf("codb: restore: %w", err)
	}
	if _, ok := db.Class(ClassInformationType); !ok {
		return nil, fmt.Errorf("codb: restore: snapshot is not a co-database")
	}
	return &CoDatabase{owner: snap.Owner, db: db, ownerDesc: snap.OwnerDesc}, nil
}
