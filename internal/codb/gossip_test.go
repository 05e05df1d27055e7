package codb

import (
	"context"
	"errors"
	"testing"

	"repro/internal/orb"
)

// fakeExchanger is a canned gossip endpoint: it records what the servant
// hands it and answers with fixed payloads, so the test pins the opaque-byte
// plumbing without involving a real gossip store.
type fakeExchanger struct {
	gotDigest []byte
	gotDelta  []byte
	delta     []byte
	digest    []byte
	applied   int
	err       error
}

func (f *fakeExchanger) HandlePull(digest []byte) ([]byte, []byte, error) {
	f.gotDigest = append([]byte(nil), digest...)
	if f.err != nil {
		return nil, nil, f.err
	}
	return f.delta, f.digest, nil
}

func (f *fakeExchanger) HandlePush(delta []byte) (int, error) {
	f.gotDelta = append([]byte(nil), delta...)
	if f.err != nil {
		return 0, f.err
	}
	return f.applied, nil
}

// TestGossipOpsOverIIOP exercises gossip_pull and gossip_push through the
// ORB: opaque payloads must cross untouched in both directions.
func TestGossipOpsOverIIOP(t *testing.T) {
	ex := &fakeExchanger{delta: []byte("\x00DELTA\xff"), digest: []byte("DIGEST"), applied: 3}
	c, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{Gossip: ex})
	ctx := context.Background()

	delta, digest, err := c.GossipPull(ctx, []byte("MY-DIGEST"))
	if err != nil || string(delta) != "\x00DELTA\xff" || string(digest) != "DIGEST" {
		t.Fatalf("GossipPull = %q, %q, %v", delta, digest, err)
	}
	if string(ex.gotDigest) != "MY-DIGEST" {
		t.Fatalf("servant saw digest %q", ex.gotDigest)
	}

	n, err := c.GossipPush(ctx, []byte("PUSHED"))
	if err != nil || n != 3 {
		t.Fatalf("GossipPush = %d, %v", n, err)
	}
	if string(ex.gotDelta) != "PUSHED" {
		t.Fatalf("servant saw delta %q", ex.gotDelta)
	}
}

// TestGossipOpsErrorsAndCompat pins the failure contract: a servant whose
// exchanger errors surfaces the failure to the client, and a servant built
// without a gossip exchanger — a pre-gossip node — answers BAD_OPERATION.
func TestGossipOpsErrorsAndCompat(t *testing.T) {
	ctx := context.Background()

	failing, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{
		Gossip: &fakeExchanger{err: errors.New("store sealed")},
	})
	if _, _, err := failing.GossipPull(ctx, nil); err == nil {
		t.Fatal("pull against failing exchanger succeeded")
	}
	if _, err := failing.GossipPush(ctx, []byte("x")); err == nil {
		t.Fatal("push against failing exchanger succeeded")
	}

	legacy, _ := startCoDBPair(t, newWideCoDB(t, 3), ServantOptions{})
	var se *orb.SystemException
	if _, _, err := legacy.GossipPull(ctx, nil); !errors.As(err, &se) || se.Name != orb.ExcBadOperation {
		t.Fatalf("pull on pre-gossip servant = %v, want BAD_OPERATION", err)
	}
}
