package simtest

import (
	"context"
	"testing"

	"repro/internal/orb"
)

// BenchmarkGossipConvergence measures a full cold-start anti-entropy cycle
// at 64-node scale: a windowed federation (connected chain of 8-member
// coalitions, no backbone) gossips until every store holds every node at its
// authoritative version. Federation construction is excluded from the timing;
// rounds/op and msgs/op report the protocol's convergence cost alongside the
// wall time, so the EXPERIMENTS.md series can track all three.
func BenchmarkGossipConvergence(b *testing.B) {
	ctx := context.Background()
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fed, err := Build(Config{
			Seed:            int64(i + 1),
			Nodes:           64,
			CoalitionSize:   8,
			NoBaseCoalition: true,
			ORB:             orb.Options{MaxIdlePerHost: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r := 0
		for ; !fed.GossipConverged() && r < 64; r++ {
			fed.RunGossipRound(ctx)
		}
		b.StopTimer()
		if !fed.GossipConverged() {
			b.Fatalf("no convergence after %d rounds", r)
		}
		rounds += int64(r)
		msgs += fed.GossipMessages()
		fed.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}
