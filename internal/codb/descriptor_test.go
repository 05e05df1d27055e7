package codb

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cdr"
	"repro/internal/idl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/descriptor_wire.golden")

// wireFixture is a descriptor whose interface text exercises what a JSON
// round trip could rewrite: HTML-significant and non-ASCII characters,
// escapes, nested functions.
func wireFixture() *SourceDescriptor {
	return &SourceDescriptor{
		Name:            "Prince Charles <Hospital> & Co",
		InformationType: "Medical",
		Documentation:   "http://example.org/pch?a=1&b=2",
		DocumentHTML:    "<p>Cardiology — \"heart\" care</p>",
		Location:        "pch.example.org",
		Wrapper:         "WebTassiliOracle",
		ISIRef:          "IOR:00000000",
		CoDBRef:         "IOR:00000001",
		Engine:          "Oracle",
		ORB:             "Orbix",
		Interface: []ExportedType{
			{
				Name:        "Patients",
				Description: "admissions <since> 1990 & \"later\" — ünïcode\ttab\\slash",
				Attributes: []TypedMember{
					{Type: "string", Name: "Patients.Name"},
					{Type: "date", Name: "Patients.Admitted"},
				},
				Functions: []ExportedFunction{{
					Name: "Admitted", Returns: "date",
					Args:  []TypedMember{{Type: "string", Name: "Patients.Name"}},
					Table: "Patients", ResultColumn: "Admitted", ArgColumn: "Name",
				}},
			},
			{Name: "Wards"},
		},
	}
}

// wireBodies returns the encoded instances and access_info results for the
// fixture as the co-database servant produces them.
func wireBodies(t *testing.T) (instances, accessInfo string) {
	t.Helper()
	cd := New("Registry")
	if err := cd.DefineCoalition("Medical", "", "hospitals"); err != nil {
		t.Fatal(err)
	}
	if err := cd.AddMember("Medical", wireFixture()); err != nil {
		t.Fatal(err)
	}
	s := NewServant(cd)
	encode := func(op string, arg string) string {
		v, err := s.Invoke(op, []idl.Any{idl.String(arg)})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		v.Marshal(e)
		return hex.EncodeToString(e.Bytes())
	}
	return encode("instances", "Medical"), encode("access_info", wireFixture().Name)
}

// TestDescriptorWireBytesGolden: the servant ships the stored interface text
// without decoding it, and the reply bodies are byte for byte what they were
// when it decoded the text and ToAny encoded it again. The golden was
// recorded from that decode-and-encode servant.
func TestDescriptorWireBytesGolden(t *testing.T) {
	instances, accessInfo := wireBodies(t)
	got := fmt.Sprintf("instances %s\naccess_info %s\n", instances, accessInfo)
	path := filepath.Join("testdata", "descriptor_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("descriptor reply bodies changed:\n got %s\nwant %s", got, want)
	}
	// The decode-and-encode path agrees with the stored text too.
	e := cdr.NewEncoder(cdr.BigEndian)
	d := wireFixture()
	d.Interface = unmarshalInterface(marshalInterface(d.Interface))
	idl.Seq(d.ToAny()).Marshal(e)
	if hex.EncodeToString(e.Bytes()) != instances {
		t.Fatal("ToAny of the decoded descriptor differs from the shipped stored text")
	}
}

// TestListedDescriptorsEqualAdvertised: descriptors listed or looked up
// through a client over IIOP are what was advertised, and two listings of the
// same advertisement share one decoded interface.
func TestListedDescriptorsEqualAdvertised(t *testing.T) {
	cd := New("Registry")
	if err := cd.DefineCoalition("Medical", "", "hospitals"); err != nil {
		t.Fatal(err)
	}
	want := wireFixture()
	if err := cd.AddMember("Medical", want); err != nil {
		t.Fatal(err)
	}
	c, _ := startCoDBPair(t, cd, ServantOptions{})
	ctx := context.Background()
	listed, err := c.Instances(ctx, "Medical")
	if err != nil || len(listed) != 1 {
		t.Fatalf("instances = %v, %v", listed, err)
	}
	if !reflect.DeepEqual(listed[0], want) {
		t.Fatalf("listed descriptor\n %+v\ndiffers from the advertised\n %+v", listed[0], want)
	}
	got, err := c.AccessInfo(ctx, want.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("access_info descriptor\n %+v\ndiffers from the advertised\n %+v", got, want)
	}
	if &got.Interface[0] != &listed[0].Interface[0] {
		t.Error("the same interface text was decoded twice")
	}
}

// TestInterfaceMemoBounded: the client's interface memo stays within its
// bound however many distinct texts it sees, from several goroutines at
// once, and still decodes each right.
func TestInterfaceMemoBounded(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*maxInterfaceMemo; i++ {
				name := fmt.Sprintf("T%d", i)
				text := marshalInterface([]ExportedType{{Name: name}})
				if ts := decodeInterface(text); len(ts) != 1 || ts[0].Name != name {
					t.Errorf("text %d decoded to %+v", i, ts)
					return
				}
			}
		}()
	}
	wg.Wait()
	interfaceMemo.RLock()
	n := len(interfaceMemo.m)
	interfaceMemo.RUnlock()
	if n > maxInterfaceMemo {
		t.Fatalf("memo holds %d texts, bound %d", n, maxInterfaceMemo)
	}
}

// TestMalformedInterfaceDecodesToNil: a descriptor whose interface text is
// not JSON arrives with no interface, as before the memo, and so does a
// repeat of it.
func TestMalformedInterfaceDecodesToNil(t *testing.T) {
	for _, text := range []string{"{not json", "[{\"name\": 1}]", strings.Repeat("[", 3)} {
		for i := 0; i < 2; i++ {
			a := wireFixture().toAny(text)
			d, err := DescriptorFromAny(a)
			if err != nil {
				t.Fatal(err)
			}
			if d.Interface != nil {
				t.Fatalf("interface %q decoded to %+v, want nil", text, d.Interface)
			}
		}
	}
}
