package oodb

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// newMedicalDB builds a small class lattice mirroring the co-database schema
// shape: InformationType root, coalition classes beneath it.
func newMedicalDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("codb-RBH")
	must := func(_ *Class, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineClass("InformationType", "",
		Attribute{Name: "Description", Type: AttrString}))
	must(db.DefineClass("Research", "InformationType",
		Attribute{Name: "Field", Type: AttrString}))
	must(db.DefineClass("Medical", "InformationType",
		Attribute{Name: "Region", Type: AttrString}))
	must(db.DefineClass("CancerResearch", "Research",
		Attribute{Name: "Funding", Type: AttrFloat}))
	return db
}

func TestDefineClassErrors(t *testing.T) {
	db := newMedicalDB(t)
	if _, err := db.DefineClass("Research", ""); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := db.DefineClass("X", "NoSuchSuper"); err == nil {
		t.Error("unknown superclass accepted")
	}
	if _, err := db.DefineClass("", ""); err == nil {
		t.Error("empty class name accepted")
	}
	if _, err := db.DefineClass("Y", "", Attribute{Name: "a"}, Attribute{Name: "A"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestLatticeQueries(t *testing.T) {
	db := newMedicalDB(t)
	subs, err := db.SubClasses("InformationType", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].Name() != "Medical" || subs[1].Name() != "Research" {
		t.Errorf("direct subclasses = %v", classNames(subs))
	}
	subs, err = db.SubClasses("InformationType", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Errorf("deep subclasses = %v", classNames(subs))
	}
	cr, _ := db.Class("CancerResearch")
	res, _ := db.Class("Research")
	info, _ := db.Class("InformationType")
	med, _ := db.Class("Medical")
	if !cr.IsSubclassOf(res) || !cr.IsSubclassOf(info) || cr.IsSubclassOf(med) {
		t.Error("IsSubclassOf wrong")
	}
	if _, err := db.SubClasses("Nope", true); err == nil {
		t.Error("unknown class accepted")
	}
}

func classNames(cs []*Class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name()
	}
	return out
}

func TestInheritedAttributes(t *testing.T) {
	db := newMedicalDB(t)
	cr, _ := db.Class("CancerResearch")
	names := make([]string, len(cr.layout))
	for i, a := range cr.layout {
		names[i] = a.Name
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "Description") || !strings.Contains(joined, "Field") ||
		!strings.Contains(joined, "Funding") {
		t.Errorf("layout = %v", names)
	}
	// Objects accept inherited attributes.
	o, err := db.NewObject("CancerResearch", map[string]any{
		"Description": "cancer studies",
		"Field":       "oncology",
		"Funding":     1.5e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.String("Description") != "cancer studies" || o.Float("Funding") != 1.5e6 {
		t.Errorf("attrs: %v %v", o.String("Description"), o.Float("Funding"))
	}
}

func TestObjectLifecycleAndExtents(t *testing.T) {
	db := newMedicalDB(t)
	r1, err := db.NewObject("Research", map[string]any{"Field": "aids"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.NewObject("CancerResearch", map[string]any{"Field": "cancer"})
	if err != nil {
		t.Fatal(err)
	}
	// Deep extent of Research includes the CancerResearch instance.
	deep, _ := db.Extent("Research", true)
	if len(deep) != 2 {
		t.Errorf("deep extent = %d", len(deep))
	}
	shallow, _ := db.Extent("Research", false)
	if len(shallow) != 1 || shallow[0].ID() != r1.ID() {
		t.Errorf("shallow extent = %d", len(shallow))
	}
	root, _ := db.Extent("InformationType", true)
	if len(root) != 2 {
		t.Errorf("root extent = %d", len(root))
	}
	// Update.
	if err := db.Set(r1.ID(), "Field", "hiv"); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Get(r1.ID()); got.String("Field") != "hiv" {
		t.Error("Set did not stick")
	}
	if err := db.Set(r1.ID(), "Field", 42); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := db.Set(r1.ID(), "Nope", "x"); err == nil {
		t.Error("unknown attribute accepted")
	}
	// Delete removes from all extents.
	if err := db.Delete(r1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(r1.ID()); err == nil {
		t.Error("double delete accepted")
	}
	deep, _ = db.Extent("Research", true)
	if len(deep) != 1 {
		t.Errorf("extent after delete = %d", len(deep))
	}
	if n, _ := db.Count("InformationType", true); n != 1 {
		t.Errorf("count after delete = %d", n)
	}
}

func TestNewObjectValidation(t *testing.T) {
	db := newMedicalDB(t)
	if _, err := db.NewObject("NoClass", nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := db.NewObject("Research", map[string]any{"Bogus": 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := db.NewObject("Research", map[string]any{"Field": 7}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestSelect(t *testing.T) {
	db := newMedicalDB(t)
	for _, f := range []string{"aids", "cancer", "cardio"} {
		if _, err := db.NewObject("Research", map[string]any{"Field": f}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Select("Research", true, func(o *Object) bool {
		return strings.HasPrefix(o.String("Field"), "ca")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("select = %d", len(got))
	}
	first, err := db.SelectFirst("Research", true, func(o *Object) bool {
		return o.String("Field") == "aids"
	})
	if err != nil || first == nil {
		t.Fatalf("SelectFirst: %v %v", first, err)
	}
	none, err := db.SelectFirst("Research", true, func(o *Object) bool { return false })
	if err != nil || none != nil {
		t.Errorf("SelectFirst none: %v %v", none, err)
	}
}

func TestAttrTypes(t *testing.T) {
	db := NewDB("t")
	if _, err := db.DefineClass("All", "",
		Attribute{Name: "s", Type: AttrString},
		Attribute{Name: "i", Type: AttrInt},
		Attribute{Name: "f", Type: AttrFloat},
		Attribute{Name: "b", Type: AttrBool},
		Attribute{Name: "l", Type: AttrStringList},
		Attribute{Name: "r", Type: AttrRef},
	); err != nil {
		t.Fatal(err)
	}
	o, err := db.NewObject("All", map[string]any{
		"s": "str", "i": 7, "f": 2.5, "b": true, "l": []string{"a", "b"}, "r": int64(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.String("s") != "str" || o.Int("i") != 7 || o.Float("f") != 2.5 ||
		!o.Bool("b") || len(o.Strings("l")) != 2 || o.Ref("r") != 99 {
		t.Errorf("attr round trip failed: %+v", o.vals)
	}
	// List values are copied in.
	src := []string{"x"}
	o2, _ := db.NewObject("All", map[string]any{"l": src})
	src[0] = "mutated"
	if o2.Strings("l")[0] != "x" {
		t.Error("string list aliases caller slice")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := newMedicalDB(t)
	r, _ := db.NewObject("Research", map[string]any{"Field": "aids", "Description": "d"})
	gone, _ := db.NewObject("Research", map[string]any{"Field": "gone"})
	c, _ := db.NewObject("CancerResearch", map[string]any{"Funding": 2.5})
	if err := db.Delete(gone.ID()); err != nil {
		t.Fatal(err)
	}
	data, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != db.Name() {
		t.Errorf("name = %s", got.Name())
	}
	if len(got.ClassNames()) != 4 {
		t.Errorf("classes = %v", got.ClassNames())
	}
	o, ok := got.Get(r.ID())
	if !ok || o.String("Field") != "aids" {
		t.Errorf("object %d not restored", r.ID())
	}
	o2, ok := got.Get(c.ID())
	if !ok || o2.Float("Funding") != 2.5 {
		t.Errorf("float attr not restored: %v", o2)
	}
	deep, _ := got.Extent("Research", true)
	if len(deep) != 2 || deep[0].ID() != r.ID() || deep[1].ID() != c.ID() {
		t.Errorf("restored extent = %v", deep)
	}
	// The saved IDs keep their gap, and a new object takes none of them.
	if _, ok := got.Get(gone.ID()); ok {
		t.Errorf("deleted object %d restored", gone.ID())
	}
	if o, err := got.NewObject("Research", nil); err != nil || o.ID() <= c.ID() {
		t.Errorf("new object after load: %v, %v; want an ID past %d", o, err, c.ID())
	}
	if _, err := Load([]byte("not json")); err == nil {
		t.Error("bad snapshot accepted")
	}
}

// TestSnapshotRoundTripKeepsValues: Load gives back every attribute value
// Snapshot saw, of its declared type: an int above 2^53, an integral float,
// an empty and a non-empty string list, and a reference.
func TestSnapshotRoundTripKeepsValues(t *testing.T) {
	db := NewDB("t")
	if _, err := db.DefineClass("All", "",
		Attribute{Name: "i", Type: AttrInt},
		Attribute{Name: "f", Type: AttrFloat},
		Attribute{Name: "none", Type: AttrStringList},
		Attribute{Name: "some", Type: AttrStringList},
		Attribute{Name: "r", Type: AttrRef},
	); err != nil {
		t.Fatal(err)
	}
	target, err := db.NewObject("All", map[string]any{"i": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	o, err := db.NewObject("All", map[string]any{
		"i": int64(1<<53 + 1), "f": 3.0, "none": []string{}, "some": []string{"a", "b"}, "r": target.ID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := got.Get(o.ID())
	if !ok {
		t.Fatalf("object %d not restored", o.ID())
	}
	for _, name := range []string{"i", "f", "none", "some", "r"} {
		want, wantOK := o.Get(name)
		have, haveOK := back.Get(name)
		if haveOK != wantOK || !reflect.DeepEqual(have, want) {
			t.Errorf("%s: restored %#v (set %v), saved %#v (set %v)", name, have, haveOK, want, wantOK)
		}
	}
	if _, ok := got.Get(back.Ref("r")); !ok {
		t.Errorf("reference %d does not resolve after Load", back.Ref("r"))
	}
}

// Property: extent size equals number of created minus deleted objects, for
// any interleaving.
func TestQuickExtentConsistency(t *testing.T) {
	f := func(ops []bool) bool {
		db := NewDB("q")
		if _, err := db.DefineClass("C", "", Attribute{Name: "n", Type: AttrInt}); err != nil {
			return false
		}
		var live []int64
		for i, create := range ops {
			if create || len(live) == 0 {
				o, err := db.NewObject("C", map[string]any{"n": i})
				if err != nil {
					return false
				}
				live = append(live, o.ID())
			} else {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				if err := db.Delete(id); err != nil {
					return false
				}
			}
		}
		n, err := db.Count("C", true)
		return err == nil && n == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
