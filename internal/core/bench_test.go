package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/orb"
)

// BenchmarkResolutionScale times the resolution of "Find Coalitions With
// Information topic-0 records" from the first of n minimal databases, with the
// databases organised two ways: one coalition per 8 databases sharing a topic
// ("coalitions-of-8", the paper's organisation), and one coalition holding
// every database ("flat"). How each grows with n is the scalability claim of
// organising the federation into topic coalitions. The first resolve, before
// the metadata cache holds any answer, is reported as cold-us; ns/op is a
// repeat resolve.
func BenchmarkResolutionScale(b *testing.B) {
	for _, org := range []struct {
		name string
		flat bool
	}{{"coalitions-of-8", false}, {"flat", true}} {
		for _, n := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", org.name, n), func(b *testing.B) {
				s := buildScaleFed(b, n, org.flat).NewSession()
				find := func() {
					if _, err := s.Execute(context.Background(), "Find Coalitions With Information topic-0 records;"); err != nil {
						b.Fatal(err)
					}
				}
				start := time.Now()
				find()
				cold := time.Since(start)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					find()
				}
				b.ReportMetric(float64(cold.Microseconds()), "cold-us")
			})
		}
	}
}

// buildScaleFed starts a federation of n one-table mSQL databases spread over
// the three ORB products, groups them into coalitions (8 to a topic, or all in
// one when flat), and returns the first database's node.
func buildScaleFed(b *testing.B, n int, flat bool) *Node {
	b.Helper()
	f, err := NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Shutdown)
	const coalitionSize = 8
	names := make([]string, n)
	products := []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker}
	for i := range names {
		names[i] = fmt.Sprintf("db-%04d", i)
		if _, err := f.AddNode(products[i%3], NodeConfig{
			Name:            names[i],
			Engine:          EngineMSQL,
			InformationType: fmt.Sprintf("topic-%d records", i/coalitionSize),
			Schema:          "CREATE TABLE t (a INT);",
		}); err != nil {
			b.Fatal(err)
		}
	}
	if flat {
		if err := f.DefineCoalition("Everything", "", "all records", names...); err != nil {
			b.Fatal(err)
		}
	} else {
		for start := 0; start < n; start += coalitionSize {
			topic := start / coalitionSize
			if err := f.DefineCoalition(fmt.Sprintf("Topic-%d", topic), "",
				fmt.Sprintf("topic-%d records", topic), names[start:min(start+coalitionSize, n)]...); err != nil {
				b.Fatal(err)
			}
		}
	}
	home, _ := f.Node(names[0])
	return home
}
