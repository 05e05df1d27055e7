package codb

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkInstances lists a seven-member coalition through a client over
// IIOP: the metadata call a coalition statement makes before its member
// calls, each descriptor carrying an exported interface.
func BenchmarkInstances(b *testing.B) {
	cd := New("Registry")
	if err := cd.DefineCoalition("Medical", "", "hospitals"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		d := wireFixture()
		d.Name = fmt.Sprintf("Hospital-%d", i)
		if err := cd.AddMember("Medical", d); err != nil {
			b.Fatal(err)
		}
	}
	c, _ := startCoDBPair(b, cd, ServantOptions{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := c.Instances(ctx, "Medical")
		if err != nil || len(ds) != 7 {
			b.Fatalf("instances = %d, %v", len(ds), err)
		}
	}
}
