package gossip

import (
	"bytes"
	"testing"
)

// FuzzGossipDelta holds the wire codec and the merge path to their safety
// contract: DecodeDelta never panics on arbitrary bytes, decoding never
// over-allocates past the payload, and applying whatever decodes can never
// move a store's version for any node backwards.
func FuzzGossipDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("WGE1"))
	f.Add([]byte("WGD1"))
	f.Add(EncodeDelta(nil))
	f.Add(EncodeDelta([]Entry{{Node: "N0", Version: 1, CoDBRef: "ref", Coalitions: []string{"base"}}}))
	f.Add(EncodeDelta([]Entry{
		{Node: "A", Version: 5, CoDBRef: "ra", Coalitions: []string{"c1", "c2"}},
		{Node: "A", Version: 2, CoDBRef: "stale"}, // duplicate with regression
		{Node: "B", Version: 0},
	}))
	f.Add(EncodeDigest(Digest{"A": 3, "B": 9}))
	f.Add([]byte("WGE1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeDelta(data) // must not panic
		if err != nil {
			return
		}

		// Whatever decoded must re-encode and decode back to the same thing
		// (duplicates and all — dedup is Apply's job, not the codec's).
		again, err := DecodeDelta(EncodeDelta(entries))
		if err != nil {
			t.Fatalf("re-decode of re-encoded delta failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d != %d", len(again), len(entries))
		}
		for i := range entries {
			if again[i].Node != entries[i].Node || again[i].Version != entries[i].Version ||
				again[i].CoDBRef != entries[i].CoDBRef || len(again[i].Coalitions) != len(entries[i].Coalitions) {
				t.Fatalf("round trip changed entry %d: %+v != %+v", i, again[i], entries[i])
			}
		}

		// Applying a fuzzed delta must never regress any version: seed a
		// store, snapshot its digest, apply, and compare.
		s := NewStore("SELF")
		s.SetSelf(Entry{Node: "SELF", Version: 7, CoDBRef: "self-ref"})
		s.Apply([]Entry{
			{Node: "P1", Version: 3, CoDBRef: "r1"},
			{Node: "P2", Version: 8, CoDBRef: "r2", Coalitions: []string{"base"}},
		})
		before := s.Digest()
		s.Apply(entries)
		s.Apply(entries) // idempotence: the second apply must be a no-op set
		after := s.Digest()
		for node, v := range before {
			if after[node] < v {
				t.Fatalf("version regressed for %s: %d -> %d", node, v, after[node])
			}
		}
		if e, _ := s.Get("SELF"); e.Version != 7 || e.CoDBRef != "self-ref" {
			t.Fatalf("fuzzed delta overwrote self entry: %+v", e)
		}

		// DecodeDigest must hold the same no-panic contract on the same bytes.
		if d, derr := DecodeDigest(data); derr == nil {
			if got, gerr := DecodeDigest(EncodeDigest(d)); gerr != nil {
				t.Fatalf("digest re-decode failed: %v", gerr)
			} else {
				for n, v := range d {
					if v != 0 && got[n] != v {
						t.Fatalf("digest round trip changed %s: %d != %d", n, got[n], v)
					}
				}
			}
		}

		// Deterministic encoding: encoding the same entries twice is
		// byte-identical (digest ordering is sorted).
		if !bytes.Equal(EncodeDelta(entries), EncodeDelta(entries)) {
			t.Fatal("EncodeDelta is not deterministic")
		}
	})
}
