package idl

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
)

func TestAnyRoundTrip(t *testing.T) {
	values := []Any{
		Null(),
		Bool(true),
		Bool(false),
		Long(-42),
		Double(2.75),
		String("WebFINDIT"),
		Octets([]byte{0, 1, 2, 255}),
		Seq(Long(1), String("two"), Seq(Bool(true))),
		Struct(
			F("name", String("Royal Brisbane Hospital")),
			F("beds", Long(850)),
			F("types", Strings([]string{"ResearchProjects", "PatientHistory"})),
		),
		{Kind: KindVoid},
		{Kind: KindOctet, Int: 200},
		{Kind: KindShort, Int: -3},
		{Kind: KindUShort, Int: 60000},
		{Kind: KindLong, Int: -100000},
		{Kind: KindULong, Int: 3000000000},
		{Kind: KindULongLong, Int: -1}, // wraps to max uint64 on the wire
		{Kind: KindFloat, Float: 1.5},
	}
	for _, v := range values {
		e := cdr.NewEncoder(cdr.BigEndian)
		v.Marshal(e)
		got, err := UnmarshalAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
		if err != nil {
			t.Fatalf("unmarshal %s: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
}

func TestAnysRoundTrip(t *testing.T) {
	in := []Any{Long(1), String("x"), Null()}
	e := cdr.NewEncoder(cdr.LittleEndian)
	MarshalAnys(e, in)
	scratch := make([]Any, 1, 4)
	out, err := UnmarshalAnys(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian), scratch)
	if err != nil || len(out) != 3 {
		t.Fatalf("got %v, %v", out, err)
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("UnmarshalAnys did not decode into the array it was given")
	}
	for i := range in {
		if !out[i].Equal(in[i]) {
			t.Errorf("item %d: %s != %s", i, out[i], in[i])
		}
	}
}

func TestStructAccessors(t *testing.T) {
	s := Struct(F("a", String("x")), F("b", Long(7)))
	if s.GetString("a") != "x" {
		t.Error("GetString")
	}
	if s.GetInt("b") != 7 {
		t.Error("GetInt")
	}
	if s.GetString("missing") != "" || s.GetInt("missing") != 0 {
		t.Error("missing field defaults")
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get reported missing field present")
	}
}

func TestStringSlice(t *testing.T) {
	a := Strings([]string{"p", "q"})
	got := a.StringSlice()
	if len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Errorf("StringSlice = %v", got)
	}
}

func TestQuickAnyStringRoundTrip(t *testing.T) {
	f := func(s string, n int64, b bool) bool {
		if strings.ContainsRune(s, 0) {
			return true
		}
		v := Struct(F("s", String(s)), F("n", Long(n)), F("b", Bool(b)))
		e := cdr.NewEncoder(cdr.BigEndian)
		v.Marshal(e)
		got, err := UnmarshalAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

const sampleIDL = `
// The co-database interface (meta-data layer).
module WebFINDIT {
    interface CoDatabase {
        string find_coalitions(in string info_type);
        sequence<any> instances(in string class_name);
        boolean is_member(in string coalition);
        oneway void touch();
        long long count(in string class_name);
        double score(in double base, in long bonus);
        sequence<octet> document(in string name);
    };
    interface ISI {
        any query(in string sql);
    };
};
`

func TestParseIDL(t *testing.T) {
	ifaces, err := Parse(sampleIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ifaces) != 2 {
		t.Fatalf("got %d interfaces", len(ifaces))
	}
	codb := ifaces[0]
	if codb.Name != "WebFINDIT/CoDatabase" {
		t.Errorf("name = %s", codb.Name)
	}
	if codb.RepoID != "IDL:WebFINDIT/CoDatabase:1.0" {
		t.Errorf("repo id = %s", codb.RepoID)
	}
	op, err := codb.Op("find_coalitions")
	if err != nil {
		t.Fatal(err)
	}
	if op.Result != KindString || len(op.Params) != 1 || op.Params[0].Kind != KindString {
		t.Errorf("find_coalitions signature: %s", op.Signature())
	}
	if op, _ := codb.Op("touch"); op == nil || !op.Oneway || op.Result != KindVoid {
		t.Error("oneway void touch() not parsed")
	}
	if op, _ := codb.Op("count"); op == nil || op.Result != KindLongLong {
		t.Error("long long result not parsed")
	}
	if op, _ := codb.Op("document"); op == nil || op.Result != KindOctets {
		t.Error("sequence<octet> result not parsed")
	}
	if op, _ := codb.Op("instances"); op == nil || op.Result != KindSeq {
		t.Error("sequence<any> result not parsed")
	}
	isi := ifaces[1]
	if isi.Name != "WebFINDIT/ISI" {
		t.Errorf("second interface = %s", isi.Name)
	}
}

func TestParseIDLErrors(t *testing.T) {
	bad := []string{
		"",
		"interface {}",
		"interface X { string op(in string); };",  // missing param name
		"interface X { string op(string a); };",   // missing direction
		"interface X { oneway string op(); };",    // oneway non-void
		"interface X { sequence<string> op(); };", // unsupported seq elem
		"module M { interface X { void op(); }",   // unterminated module
		"interface X { unknown op(); };",          // unknown type
		"banana",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseIDLComments(t *testing.T) {
	src := `
	/* block comment
	   spans lines */
	interface C {
		// line comment
		void ping(); /* trailing */
	};`
	ifaces, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ifaces[0].Op("ping"); err != nil {
		t.Error(err)
	}
}

func TestRepository(t *testing.T) {
	r := NewRepository()
	ifaces := MustParse(sampleIDL)
	for _, it := range ifaces {
		r.Register(it)
	}
	if _, ok := r.Lookup("IDL:WebFINDIT/ISI:1.0"); !ok {
		t.Error("Lookup by repo id failed")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "WebFINDIT/CoDatabase" {
		t.Errorf("Names = %v", names)
	}
}

func TestOperationHelpers(t *testing.T) {
	it := NewInterface("T")
	it.Ops["f"] = &Operation{Name: "f", Result: KindString, Params: []Param{
		{Dir: In, Kind: KindString, Name: "a"},
		{Dir: Out, Kind: KindLong, Name: "b"},
		{Dir: InOut, Kind: KindBool, Name: "c"},
	}}
	op, _ := it.Op("f")
	if op.InCount() != 2 {
		t.Errorf("InCount = %d", op.InCount())
	}
	sig := op.Signature()
	if !strings.Contains(sig, "in string a") || !strings.Contains(sig, "out long b") {
		t.Errorf("signature = %s", sig)
	}
	if _, err := it.Op("missing"); err == nil {
		t.Error("missing op not reported")
	}
}

// TestUnmarshalHostileCounts: an element count read off the wire must not
// size an allocation the bytes present cannot justify. At one time the 8-byte
// body 0e 00 00 00 ff ff ff ff asked for 4 Gi elements up front and killed the
// process with "fatal error: runtime: out of memory" — not a panic a caller
// could recover from.
func TestUnmarshalHostileCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	body := func(kind Kind) []byte { return append([]byte{byte(kind), 0, 0, 0}, huge...) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, kind := range []Kind{KindSeq, KindAny, KindStruct} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			if _, err := UnmarshalAny(cdr.NewDecoder(body(kind), order)); err == nil {
				t.Errorf("%s with a count of 2^32-1 and no elements decoded", kind)
			}
		}
	}
	if _, err := UnmarshalAnys(cdr.NewDecoder(huge, cdr.BigEndian), nil); err == nil {
		t.Error("UnmarshalAnys decoded 2^32-1 values from no bytes")
	}
	// A count that is honest about the first elements still fails on the
	// first missing one, having sized by what is there.
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(1 << 30)
	Long(7).Marshal(e)
	if _, err := UnmarshalAnys(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), nil); err == nil {
		t.Error("UnmarshalAnys decoded 2^30 values from one")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing six hostile bodies allocated %d bytes", grew)
	}
}
