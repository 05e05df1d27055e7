package codb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/orb"
)

// newWideCoDB builds a co-database with one coalition holding n members.
func newWideCoDB(t *testing.T, n int) *CoDatabase {
	t.Helper()
	cd := New("Registry")
	if err := cd.DefineCoalition("Medical", "", "every hospital in the state"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := &SourceDescriptor{
			Name:            fmt.Sprintf("Hospital-%02d", i),
			InformationType: "Medical",
			Engine:          "Oracle",
		}
		if err := cd.AddMember("Medical", d); err != nil {
			t.Fatal(err)
		}
	}
	return cd
}

// startCoDBPair activates a co-database servant on its own ORB and returns a
// client that reaches it over IIOP, plus the serving ORB (for its counters).
func startCoDBPair(t *testing.T, cd *CoDatabase, opts ServantOptions) (*Client, *orb.ORB) {
	t.Helper()
	server := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ior, err := server.Activate("CoDatabase/Registry", NewServantWith(cd, opts))
	if err != nil {
		t.Fatal(err)
	}
	clientORB := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	t.Cleanup(clientORB.Shutdown)
	return NewClient(clientORB.Resolve(ior)), server
}

// TestInstancesIsOneRoundTrip: a listing is one invocation whatever the
// coalition's size, and the interface has no cursor operation that could
// leave servant state behind it.
func TestInstancesIsOneRoundTrip(t *testing.T) {
	c, server := startCoDBPair(t, newWideCoDB(t, 40), ServantOptions{})
	before := server.Stats.RequestsServed.Load()
	insts, err := c.Instances(context.Background(), "Medical")
	if err != nil || len(insts) != 40 || insts[0].Name != "Hospital-00" || insts[39].Name != "Hospital-39" {
		t.Fatalf("instances = %d descriptor(s), %v", len(insts), err)
	}
	if got := server.Stats.RequestsServed.Load() - before; got != 1 {
		t.Fatalf("Instances cost %d invocation(s), want 1", got)
	}
	for name := range IDL.Ops {
		if strings.Contains(name, "cursor") {
			t.Errorf("co-database IDL declares %s: listings are not paged", name)
		}
	}
	// Errors still surface as typed user exceptions.
	if _, err := c.Instances(context.Background(), "Nope"); err == nil {
		t.Fatal("unknown coalition accepted")
	} else if ue, ok := err.(*orb.UserException); !ok || ue.Name != "CoDatabaseError" {
		t.Fatalf("error shape = %v", err)
	}
}
