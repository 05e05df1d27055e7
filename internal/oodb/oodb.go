// Package oodb implements an in-memory object-oriented database engine in
// the style of the ObjectStore and Ontos systems the paper deploys: classes
// with single inheritance forming a lattice, typed attributes, per-class
// extents, and predicate queries with optional subclass traversal. The WebFINDIT co-databases (meta-data layer) are built on this
// engine, mirroring the paper: "a co-database is an object-oriented database
// that stores information about its associated database, coalitions, and
// service links".
package oodb

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// AttrType enumerates attribute types.
type AttrType byte

// Attribute types.
const (
	AttrString AttrType = iota
	AttrInt
	AttrFloat
	AttrBool
	AttrStringList
	AttrRef // reference to another object, stored as its ID
)

func (t AttrType) String() string {
	switch t {
	case AttrString:
		return "string"
	case AttrInt:
		return "int"
	case AttrFloat:
		return "float"
	case AttrBool:
		return "bool"
	case AttrStringList:
		return "list<string>"
	case AttrRef:
		return "ref"
	}
	return fmt.Sprintf("AttrType(%d)", byte(t))
}

// Attribute declares one typed attribute of a class.
type Attribute struct {
	Name string
	Type AttrType
}

// Class is one node of the class lattice.
type Class struct {
	name  string
	super *Class
	attrs []Attribute
	// layout is own plus inherited attributes, fixed at DefineClass: an
	// object keeps its values in this order. It extends the superclass's
	// layout, so an inherited or redeclared attribute has the slot it has in
	// every ancestor that declares it.
	layout []Attribute
	slots  map[string]int // lower-cased attribute name -> position in layout
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Super returns the superclass (nil at the root).
func (c *Class) Super() *Class { return c.super }

// Attributes returns the class's own (non-inherited) attributes.
func (c *Class) Attributes() []Attribute { return append([]Attribute(nil), c.attrs...) }

// slot resolves an attribute by name to its position in the layout.
func (c *Class) slot(name string) (int, bool) {
	i, ok := c.slots[strings.ToLower(name)]
	return i, ok
}

// IsSubclassOf reports whether c equals or descends from other.
func (c *Class) IsSubclassOf(other *Class) bool {
	for cl := c; cl != nil; cl = cl.super {
		if cl == other {
			return true
		}
	}
	return false
}

// Object is one stored instance.
type Object struct {
	id    int64
	class *Class
	vals  []any // by slot in the class's layout; nil where unset
	dead  bool  // deleted: a Rows that holds the object passes it over
}

// ID returns the object's database-assigned identifier.
func (o *Object) ID() int64 { return o.id }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Get returns an attribute value.
func (o *Object) Get(name string) (any, bool) {
	v := o.value(strings.ToLower(name))
	return v, v != nil
}

// value is the value of the attribute keyed lattr (lower-cased), nil when the
// object's class has no such attribute or it is unset.
func (o *Object) value(lattr string) any {
	if i, ok := o.class.slots[lattr]; ok {
		return o.vals[i]
	}
	return nil
}

// String returns a string attribute ("" when absent or not a string).
func (o *Object) String(name string) string {
	v, _ := o.Get(name)
	s, _ := v.(string)
	return s
}

// Int returns an int attribute (0 when absent).
func (o *Object) Int(name string) int64 {
	v, _ := o.Get(name)
	n, _ := v.(int64)
	return n
}

// Float returns a float attribute (0 when absent).
func (o *Object) Float(name string) float64 {
	v, _ := o.Get(name)
	f, _ := v.(float64)
	return f
}

// Bool returns a bool attribute (false when absent).
func (o *Object) Bool(name string) bool {
	v, _ := o.Get(name)
	b, _ := v.(bool)
	return b
}

// Strings returns a string-list attribute (nil when absent).
func (o *Object) Strings(name string) []string {
	v, _ := o.Get(name)
	l, _ := v.([]string)
	return l
}

// Ref returns a reference attribute's target ID (0 when absent).
func (o *Object) Ref(name string) int64 {
	v, _ := o.Get(name)
	n, _ := v.(int64)
	return n
}

// DB is one object-oriented database instance.
type DB struct {
	name string

	mu      sync.RWMutex
	classes map[string]*Class // by lower-cased name
	objects map[int64]*Object
	extents map[string][]*Object // class (lower) -> members, insertion order
	nextID  int64

	// Attribute indexes are built by queries, which hold mu's read lock and
	// take ixMu to read or fill the map; every write, under mu's write lock,
	// drops them all.
	ixMu    sync.Mutex
	indexes map[ixKey]*attrIndex

	chunks atomic.Int64 // steps query scans have taken (oql.go)
}

// ixKey names an attribute index: a class extent and an attribute, both
// lower-cased.
type ixKey struct{ class, attr string }

// attrIndex orders the objects of one class extent (subclass instances
// included) by one attribute's value in oqlCompare's order — numbers (int64
// and float64 together), then strings, then booleans, each group by value —
// and by object ID within a value. Objects that lack the attribute, or whose
// value no literal compares with (a string list), are not in it: no
// condition on the attribute can match them.
type attrIndex struct {
	entries []ixEntry
	nan     bool // a NaN, which oqlCompare finds equal to every number: no order holds
}

type ixEntry struct {
	val any
	o   *Object
}

// kindRank is a value's group in an attrIndex, -1 for a value oqlCompare
// compares with nothing.
func kindRank(v any) int {
	switch v.(type) {
	case int64, float64:
		return 0
	case string:
		return 1
	case bool:
		return 2
	}
	return -1
}

// ixCompare is the attrIndex order on values.
func ixCompare(a, b any) int {
	if c := cmp.Compare(kindRank(a), kindRank(b)); c != 0 {
		return c
	}
	c, _ := oqlCompare(a, b)
	return c
}

// index returns the attribute index of (class, attr), building it on first
// use. The caller holds the read lock, so the extent cannot change under the
// build; concurrent queries wait for one build on ixMu.
func (db *DB) index(class, attr string) *attrIndex {
	db.ixMu.Lock()
	defer db.ixMu.Unlock()
	k := ixKey{class, attr}
	if ix, ok := db.indexes[k]; ok {
		return ix
	}
	ix := &attrIndex{}
	for _, o := range db.extents[class] {
		v := o.value(attr)
		if kindRank(v) < 0 {
			continue
		}
		if f, isFloat := v.(float64); isFloat && f != f {
			ix.nan = true
		}
		ix.entries = append(ix.entries, ixEntry{v, o})
	}
	slices.SortFunc(ix.entries, func(a, b ixEntry) int {
		if c := ixCompare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.o.id, b.o.id)
	})
	if db.indexes == nil {
		db.indexes = make(map[ixKey]*attrIndex)
	}
	db.indexes[k] = ix
	return ix
}

// dropIndexes forgets every attribute index, so no query reads one built
// before a write. The caller holds the write lock.
func (db *DB) dropIndexes() { db.indexes = nil }

// NewDB creates an empty database.
func NewDB(name string) *DB {
	return &DB{
		name:    name,
		classes: make(map[string]*Class),
		objects: make(map[int64]*Object),
		extents: make(map[string][]*Object),
	}
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// ChunksScanned counts the steps query scans have taken since the database
// was created, each a run of at most 1 024 extent members. It stands still
// when no scan is running: a closed or exhausted cursor costs nothing.
func (db *DB) ChunksScanned() int64 { return db.chunks.Load() }

// DefineClass declares a class. superName may be "" for a root class.
func (db *DB) DefineClass(name, superName string, attrs ...Attribute) (*Class, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if name == "" {
		return nil, fmt.Errorf("oodb: %s: empty class name", db.name)
	}
	if _, exists := db.classes[key]; exists {
		return nil, fmt.Errorf("oodb: %s: class %s already defined", db.name, name)
	}
	var super *Class
	if superName != "" {
		s, ok := db.classes[strings.ToLower(superName)]
		if !ok {
			return nil, fmt.Errorf("oodb: %s: superclass %s not defined", db.name, superName)
		}
		super = s
	}
	c := &Class{name: name, super: super, attrs: append([]Attribute(nil), attrs...), slots: make(map[string]int)}
	if super != nil {
		c.layout = append(c.layout, super.layout...)
		maps.Copy(c.slots, super.slots)
	}
	own := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		k := strings.ToLower(a.Name)
		if own[k] {
			return nil, fmt.Errorf("oodb: %s: class %s: duplicate attribute %s", db.name, name, a.Name)
		}
		own[k] = true
		if i, inherited := c.slots[k]; inherited {
			c.layout[i] = a // a redeclaration keeps the inherited slot
			continue
		}
		c.slots[k] = len(c.layout)
		c.layout = append(c.layout, a)
	}
	db.classes[key] = c
	return c, nil
}

// Class looks up a class by name.
func (db *DB) Class(name string) (*Class, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.classes[strings.ToLower(name)]
	return c, ok
}

// ClassNames lists class names, sorted.
func (db *DB) ClassNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.classes))
	for _, c := range db.classes {
		names = append(names, c.name)
	}
	sort.Strings(names)
	return names
}

// SubClasses returns the classes whose direct superclass is the named class
// (direct=true) or all descendants (direct=false); sorted by name.
func (db *DB) SubClasses(name string, direct bool) ([]*Class, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	root, ok := db.classes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("oodb: %s: no class %s", db.name, name)
	}
	var out []*Class
	for _, c := range db.classes {
		if c == root {
			continue
		}
		if direct {
			if c.super == root {
				out = append(out, c)
			}
		} else if c.IsSubclassOf(root) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// checkValue validates an attribute assignment.
func checkValue(a Attribute, v any) (any, error) {
	switch a.Type {
	case AttrString:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case AttrInt:
		switch n := v.(type) {
		case int64:
			return n, nil
		case int:
			return int64(n), nil
		}
	case AttrFloat:
		switch f := v.(type) {
		case float64:
			return f, nil
		case int:
			return float64(f), nil
		case int64:
			return float64(f), nil
		}
	case AttrBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case AttrStringList:
		if l, ok := v.([]string); ok {
			return append([]string(nil), l...), nil
		}
	case AttrRef:
		switch n := v.(type) {
		case int64:
			return n, nil
		case int:
			return int64(n), nil
		}
	}
	return nil, fmt.Errorf("oodb: attribute %s expects %s, got %T", a.Name, a.Type, v)
}

// NewObject creates an instance of the named class with the given attribute
// values; unknown attributes, and one named twice in different cases, are
// rejected.
func (db *DB) NewObject(className string, attrs map[string]any) (*Object, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.classes[strings.ToLower(className)]
	if !ok {
		return nil, fmt.Errorf("oodb: %s: no class %s", db.name, className)
	}
	o := &Object{class: c, vals: make([]any, len(c.layout))}
	for name, v := range attrs {
		i, ok := c.slot(name)
		if !ok {
			return nil, fmt.Errorf("oodb: class %s has no attribute %s", c.name, name)
		}
		if o.vals[i] != nil { // a checked value is never nil
			return nil, fmt.Errorf("oodb: class %s: attribute %s given twice", c.name, c.layout[i].Name)
		}
		val, err := checkValue(c.layout[i], v)
		if err != nil {
			return nil, err
		}
		o.vals[i] = val
	}
	db.nextID++
	o.id = db.nextID
	db.objects[o.id] = o
	db.dropIndexes()
	// The object belongs to the extent of its class and all ancestors.
	for cl := c; cl != nil; cl = cl.super {
		key := strings.ToLower(cl.name)
		db.extents[key] = append(db.extents[key], o)
	}
	return o, nil
}

// Get returns the object with the given ID.
func (db *DB) Get(id int64) (*Object, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	o, ok := db.objects[id]
	return o, ok
}

// Set updates one attribute of an object.
func (db *DB) Set(id int64, name string, v any) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	o, ok := db.objects[id]
	if !ok {
		return fmt.Errorf("oodb: %s: no object %d", db.name, id)
	}
	i, ok := o.class.slot(name)
	if !ok {
		return fmt.Errorf("oodb: class %s has no attribute %s", o.class.name, name)
	}
	val, err := checkValue(o.class.layout[i], v)
	if err != nil {
		return err
	}
	o.vals[i] = val
	db.dropIndexes()
	return nil
}

// Delete removes an object from the database and all extents.
func (db *DB) Delete(id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	o, ok := db.objects[id]
	if !ok {
		return fmt.Errorf("oodb: %s: no object %d", db.name, id)
	}
	delete(db.objects, id)
	o.dead = true
	db.dropIndexes()
	for cl := o.class; cl != nil; cl = cl.super {
		key := strings.ToLower(cl.name)
		ext := db.extents[key]
		if i := slices.Index(ext, o); i >= 0 {
			// A new slice: an open Rows walks the old one in place.
			db.extents[key] = append(ext[:i:i], ext[i+1:]...)
		}
	}
	return nil
}

// Extent returns the instances of a class. deep includes subclass instances
// (class extents are maintained transitively, so deep is the natural form;
// shallow filters to exact class membership).
func (db *DB) Extent(className string, deep bool) ([]*Object, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.classes[strings.ToLower(className)]
	if !ok {
		return nil, fmt.Errorf("oodb: %s: no class %s", db.name, className)
	}
	ext := db.extents[strings.ToLower(className)]
	out := make([]*Object, 0, len(ext))
	for _, o := range ext {
		if deep || o.class == c {
			out = append(out, o)
		}
	}
	return out, nil
}

// Select returns instances of a class satisfying a predicate.
func (db *DB) Select(className string, deep bool, pred func(*Object) bool) ([]*Object, error) {
	objs, err := db.Extent(className, deep)
	if err != nil {
		return nil, err
	}
	out := objs[:0:0]
	for _, o := range objs {
		if pred == nil || pred(o) {
			out = append(out, o)
		}
	}
	return out, nil
}

// SelectFirst returns the first instance matching the predicate, or nil.
func (db *DB) SelectFirst(className string, deep bool, pred func(*Object) bool) (*Object, error) {
	objs, err := db.Select(className, deep, pred)
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, nil
	}
	return objs[0], nil
}

// Count reports the size of a class extent.
func (db *DB) Count(className string, deep bool) (int, error) {
	objs, err := db.Extent(className, deep)
	if err != nil {
		return 0, err
	}
	return len(objs), nil
}

// ---- Snapshot persistence ----

type snapshotObject struct {
	ID    int64          `json:"id"`
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs"`
}

type snapshotClass struct {
	Name  string     `json:"name"`
	Super string     `json:"super,omitempty"`
	Attrs []snapAttr `json:"attrs,omitempty"`
}

type snapAttr struct {
	Name string `json:"name"`
	Type byte   `json:"type"`
}

type snapshot struct {
	Name    string           `json:"name"`
	Classes []snapshotClass  `json:"classes"`
	Objects []snapshotObject `json:"objects"`
}

// Snapshot serialises the schema and all objects to JSON.
func (db *DB) Snapshot() ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot{Name: db.name}
	// Emit classes parents-first.
	var emit func(c *Class)
	emitted := make(map[*Class]bool)
	emit = func(c *Class) {
		if emitted[c] {
			return
		}
		if c.super != nil {
			emit(c.super)
		}
		emitted[c] = true
		sc := snapshotClass{Name: c.name}
		if c.super != nil {
			sc.Super = c.super.name
		}
		for _, a := range c.attrs {
			sc.Attrs = append(sc.Attrs, snapAttr{Name: a.Name, Type: byte(a.Type)})
		}
		snap.Classes = append(snap.Classes, sc)
	}
	names := make([]string, 0, len(db.classes))
	for k := range db.classes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		emit(db.classes[k])
	}
	ids := make([]int64, 0, len(db.objects))
	for id := range db.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o := db.objects[id]
		attrs := make(map[string]any, len(o.vals))
		for i, v := range o.vals {
			if v != nil {
				attrs[strings.ToLower(o.class.layout[i].Name)] = v
			}
		}
		snap.Objects = append(snap.Objects, snapshotObject{ID: o.id, Class: o.class.name, Attrs: attrs})
	}
	return json.MarshalIndent(snap, "", "  ")
}

// Load restores a snapshot into a fresh database. A value is read back as
// its attribute's declared type says, not as its JSON looks: numbers are
// decoded exactly, so an int above 2^53 survives, and an integral float stays
// a float.
func Load(data []byte) (*DB, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("oodb: load: %w", err)
	}
	db := NewDB(snap.Name)
	for _, sc := range snap.Classes {
		attrs := make([]Attribute, len(sc.Attrs))
		for i, a := range sc.Attrs {
			attrs[i] = Attribute{Name: a.Name, Type: AttrType(a.Type)}
		}
		if _, err := db.DefineClass(sc.Name, sc.Super, attrs...); err != nil {
			return nil, err
		}
	}
	for _, so := range snap.Objects {
		c, ok := db.classes[strings.ToLower(so.Class)]
		if !ok {
			return nil, fmt.Errorf("oodb: load: object %d of undefined class %s", so.ID, so.Class)
		}
		attrs := make(map[string]any, len(so.Attrs))
		for k, v := range so.Attrs {
			i, ok := c.slot(k)
			if !ok {
				return nil, fmt.Errorf("oodb: load: class %s has no attribute %s", c.name, k)
			}
			val, err := fromJSON(c.layout[i], v)
			if err != nil {
				return nil, fmt.Errorf("oodb: load: object %d: %w", so.ID, err)
			}
			attrs[k] = val
		}
		// NewObject takes the ID after nextID: the saved one, so Ref
		// attributes stay valid.
		last := db.nextID
		db.nextID = so.ID - 1
		if _, err := db.NewObject(so.Class, attrs); err != nil {
			return nil, err
		}
		db.nextID = max(db.nextID, last)
	}
	return db, nil
}

// fromJSON converts a value the snapshot decoder produced (a json.Number, a
// string, a bool, a list or nil) to the type attribute a holds.
func fromJSON(a Attribute, v any) (any, error) {
	n, isNum := v.(json.Number)
	switch {
	case isNum && (a.Type == AttrInt || a.Type == AttrRef):
		return n.Int64()
	case isNum && a.Type == AttrFloat:
		return n.Float64()
	case a.Type == AttrStringList:
		// An empty list is stored as nil, which the snapshot writes as null.
		list, ok := v.([]any)
		if !ok && v != nil {
			break
		}
		var out []string
		for _, item := range list {
			s, ok := item.(string)
			if !ok {
				return nil, fmt.Errorf("oodb: attribute %s holds %v, not a string", a.Name, item)
			}
			out = append(out, s)
		}
		return out, nil
	case !isNum:
		return v, nil // NewObject checks strings and booleans
	}
	return nil, fmt.Errorf("oodb: attribute %s expects %s, got %s", a.Name, a.Type, v)
}
