// Package oodb implements an in-memory object-oriented database engine in
// the style of the ObjectStore and Ontos systems the paper deploys: classes
// with single inheritance forming a lattice, typed attributes, registered
// methods, per-class extents, and predicate queries with optional subclass
// traversal. The WebFINDIT co-databases (meta-data layer) are built on this
// engine, mirroring the paper: "a co-database is an object-oriented database
// that stores information about its associated database, coalitions, and
// service links".
package oodb

import (
	"cmp"
	"encoding/json"
	"fmt"
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

// Method is executable behaviour attached to a class (the analogue of the
// paper's access routines / class methods).
type Method func(o *Object, args ...any) (any, error)

// Class is one node of the class lattice.
type Class struct {
	db      *DB
	name    string
	super   *Class
	attrs   []Attribute
	methods map[string]Method
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Super returns the superclass (nil at the root).
func (c *Class) Super() *Class { return c.super }

// Attributes returns the class's own (non-inherited) attributes.
func (c *Class) Attributes() []Attribute { return append([]Attribute(nil), c.attrs...) }

// AllAttributes returns own plus inherited attributes, most-derived last
// overriding earlier names.
func (c *Class) AllAttributes() []Attribute {
	var chain []*Class
	for cl := c; cl != nil; cl = cl.super {
		chain = append(chain, cl)
	}
	seen := make(map[string]bool)
	var out []Attribute
	for i := len(chain) - 1; i >= 0; i-- {
		for _, a := range chain[i].attrs {
			key := strings.ToLower(a.Name)
			if seen[key] {
				for j := range out {
					if strings.EqualFold(out[j].Name, a.Name) {
						out[j] = a
					}
				}
				continue
			}
			seen[key] = true
			out = append(out, a)
		}
	}
	return out
}

// attribute resolves an attribute by name up the lattice.
func (c *Class) attribute(name string) (Attribute, bool) {
	for cl := c; cl != nil; cl = cl.super {
		for _, a := range cl.attrs {
			if strings.EqualFold(a.Name, name) {
				return a, true
			}
		}
	}
	return Attribute{}, false
}

// DefineMethod attaches behaviour; inherited by subclasses, overridable.
func (c *Class) DefineMethod(name string, m Method) {
	c.db.mu.Lock()
	defer c.db.mu.Unlock()
	c.methods[strings.ToLower(name)] = m
}

// method resolves a method by name up the lattice.
func (c *Class) method(name string) (Method, bool) {
	key := strings.ToLower(name)
	for cl := c; cl != nil; cl = cl.super {
		if m, ok := cl.methods[key]; ok {
			return m, true
		}
	}
	return nil, false
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
	attrs map[string]any // keyed by lower-cased attribute name
}

// ID returns the object's database-assigned identifier.
func (o *Object) ID() int64 { return o.id }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Get returns an attribute value.
func (o *Object) Get(name string) (any, bool) {
	v, ok := o.attrs[strings.ToLower(name)]
	return v, ok
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

// Call invokes a method resolved through the object's class lattice.
func (o *Object) Call(name string, args ...any) (any, error) {
	m, ok := o.class.method(name)
	if !ok {
		return nil, fmt.Errorf("oodb: class %s has no method %s", o.class.name, name)
	}
	return m(o, args...)
}

// DB is one object-oriented database instance.
type DB struct {
	name string

	mu      sync.RWMutex
	classes map[string]*Class // by lower-cased name
	objects map[int64]*Object
	extents map[string][]int64 // class (lower) -> member object IDs, insertion order
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
	id  int64
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
	for _, id := range db.extents[class] {
		o := db.objects[id]
		if o == nil {
			continue
		}
		v, ok := o.attrs[attr]
		if !ok || kindRank(v) < 0 {
			continue
		}
		if f, isFloat := v.(float64); isFloat && f != f {
			ix.nan = true
		}
		ix.entries = append(ix.entries, ixEntry{v, id})
	}
	slices.SortFunc(ix.entries, func(a, b ixEntry) int {
		if c := ixCompare(a.val, b.val); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
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
		extents: make(map[string][]int64),
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
	seen := make(map[string]bool)
	for _, a := range attrs {
		k := strings.ToLower(a.Name)
		if seen[k] {
			return nil, fmt.Errorf("oodb: %s: class %s: duplicate attribute %s", db.name, name, a.Name)
		}
		seen[k] = true
	}
	c := &Class{db: db, name: name, super: super,
		attrs: append([]Attribute(nil), attrs...), methods: make(map[string]Method)}
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
// values; unknown attributes are rejected.
func (db *DB) NewObject(className string, attrs map[string]any) (*Object, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.classes[strings.ToLower(className)]
	if !ok {
		return nil, fmt.Errorf("oodb: %s: no class %s", db.name, className)
	}
	o := &Object{class: c, attrs: make(map[string]any, len(attrs))}
	for name, v := range attrs {
		a, ok := c.attribute(name)
		if !ok {
			return nil, fmt.Errorf("oodb: class %s has no attribute %s", c.name, name)
		}
		val, err := checkValue(a, v)
		if err != nil {
			return nil, err
		}
		o.attrs[strings.ToLower(name)] = val
	}
	db.nextID++
	o.id = db.nextID
	db.objects[o.id] = o
	db.dropIndexes()
	// The object belongs to the extent of its class and all ancestors.
	for cl := c; cl != nil; cl = cl.super {
		key := strings.ToLower(cl.name)
		db.extents[key] = append(db.extents[key], o.id)
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
	a, ok := o.class.attribute(name)
	if !ok {
		return fmt.Errorf("oodb: class %s has no attribute %s", o.class.name, name)
	}
	val, err := checkValue(a, v)
	if err != nil {
		return err
	}
	o.attrs[strings.ToLower(name)] = val
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
	db.dropIndexes()
	for cl := o.class; cl != nil; cl = cl.super {
		key := strings.ToLower(cl.name)
		ext := db.extents[key]
		for i, oid := range ext {
			if oid == id {
				db.extents[key] = append(ext[:i], ext[i+1:]...)
				break
			}
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
	ids := db.extents[strings.ToLower(className)]
	out := make([]*Object, 0, len(ids))
	for _, id := range ids {
		o := db.objects[id]
		if o == nil {
			continue
		}
		if !deep && o.class != c {
			continue
		}
		out = append(out, o)
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

// Snapshot serialises the schema and all objects to JSON. Methods are code
// and are not serialised; reattach them after Load.
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
		snap.Objects = append(snap.Objects, snapshotObject{ID: o.id, Class: o.class.name, Attrs: o.attrs})
	}
	return json.MarshalIndent(snap, "", "  ")
}

// Load restores a snapshot into a fresh database.
func Load(data []byte) (*DB, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
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
		attrs := make(map[string]any, len(so.Attrs))
		for k, v := range so.Attrs {
			if v == nil {
				continue // nil-valued attributes (e.g. empty lists) stay unset
			}
			attrs[k] = normaliseJSON(v)
		}
		o, err := db.NewObject(so.Class, attrs)
		if err != nil {
			return nil, err
		}
		// Preserve original IDs so Ref attributes stay valid.
		db.mu.Lock()
		delete(db.objects, o.id)
		db.dropIndexes()
		remapExtents(db, o.id, so.ID)
		o.id = so.ID
		db.objects[so.ID] = o
		if so.ID > db.nextID {
			db.nextID = so.ID
		}
		db.mu.Unlock()
	}
	return db, nil
}

func remapExtents(db *DB, from, to int64) {
	for k, ext := range db.extents {
		for i, id := range ext {
			if id == from {
				db.extents[k][i] = to
			}
		}
	}
}

// normaliseJSON converts JSON decode artifacts (float64 numbers, []any
// lists) back to the engine's attribute value types.
func normaliseJSON(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case []any:
		out := make([]string, 0, len(x))
		for _, item := range x {
			if s, ok := item.(string); ok {
				out = append(out, s)
			}
		}
		return out
	default:
		return v
	}
}
