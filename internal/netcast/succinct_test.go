package netcast

import (
	"context"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/xpath"
)

// TestEndToEndRetrieveSuccinct drives the succinct first tier over real TCP:
// the cycle head negotiates the encoding (organisation byte 2), the client
// navigates the balanced-parentheses tier in place, and retrieval answers
// exactly as the node-pointer stream would.
func TestEndToEndRetrieveSuccinct(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		IndexEncoding: core.EncodingSuccinct,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	q := xpath.MustParse("/nitf/body/body.content/block")
	want := q.MatchingDocs(coll)
	if len(want) == 0 {
		t.Fatal("test query matches nothing")
	}
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, stats, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	checkRetrieved(t, coll, docs, want)
	if stats.TuningBytes <= 0 || stats.Cycles == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestStartServerRejectsSuccinctOneTier pins the negotiation's validation:
// the succinct tier carries no document offsets, so a one-tier succinct
// server must fail to start rather than broadcast an unanswerable stream.
func TestStartServerRejectsSuccinctOneTier(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.OneTierMode,
		IndexEncoding: core.EncodingSuccinct,
		CycleCapacity: coll.TotalSize(),
	})
	if err == nil {
		srv.Shutdown()
		t.Fatal("one-tier succinct server started, want configuration error")
	}
}
