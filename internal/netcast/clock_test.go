package netcast

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// The token bucket is pure arithmetic over a supplied clock, so its behaviour
// is exactly computable: 2 tokens/s with burst 1 grants the burst token, then
// demands a 500ms wait per query.
func TestTokenBucketDeterministic(t *testing.T) {
	clk := control.NewFake(time.Unix(0, 0))
	b := newTokenBucket(2, 1, clk.Now())

	if wait := b.take(clk.Now()); wait != 0 {
		t.Fatalf("burst token refused: wait = %v", wait)
	}
	if wait := b.take(clk.Now()); wait != 500*time.Millisecond {
		t.Fatalf("empty bucket: wait = %v, want 500ms", wait)
	}
	clk.Advance(500 * time.Millisecond)
	if wait := b.take(clk.Now()); wait != 0 {
		t.Fatalf("refilled token refused: wait = %v", wait)
	}
	clk.Advance(250 * time.Millisecond)
	if wait := b.take(clk.Now()); wait != 250*time.Millisecond {
		t.Fatalf("half-refilled bucket: wait = %v, want 250ms", wait)
	}

	// Idle time accrues at most the burst capacity.
	clk.Advance(time.Hour)
	if wait := b.take(clk.Now()); wait != 0 {
		t.Fatalf("token after idle refused: wait = %v", wait)
	}
	if wait := b.take(clk.Now()); wait != 500*time.Millisecond {
		t.Fatalf("burst not clamped after idle: wait = %v, want 500ms", wait)
	}
}

// waitForWaiter polls until a goroutine blocks on the fake clock's After.
func waitForWaiter(t *testing.T, clk *control.Fake) {
	t.Helper()
	waitFor(t, "a goroutine to block on the injected clock", func() bool { return clk.Waiters() > 0 })
}

// SubmitRetry's backoff waits must run on the injected clock: against a stub
// server that rejects twice before admitting, the retry loop blocks on the
// fake clock (observable via Waiters) and completes only as the test advances
// it — no wall-clock sleeps.
func TestSubmitRetryBackoffOnInjectedClock(t *testing.T) {
	const rejects = 2
	upAddr := stubUplink(t, 1, func(sc *stubConn) {
		for i := 0; ; i++ {
			stream, _, _, err := sc.next()
			if err != nil {
				return
			}
			if i < rejects {
				_ = sc.respond(stream, wire.FrameReject, encodeReject(100*time.Millisecond, "busy"))
			} else {
				_ = sc.respond(stream, wire.FrameAck, []byte("ok:1:7"))
			}
		}
	})

	// The broadcast side is never read: a mute listener will do.
	cl, err := Dial(upAddr, muteListener(t), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	clk := control.NewFake(time.Unix(0, 0))
	cl.Clock = clk

	done := make(chan error, 1)
	go func() {
		done <- cl.SubmitRetry(context.Background(), xpath.MustParse("/nitf"))
	}()
	for i := 0; i < rejects; i++ {
		select {
		case err := <-done:
			t.Fatalf("SubmitRetry returned after %d rejections without waiting: %v", i, err)
		default:
		}
		waitForWaiter(t, clk)
		// The 100ms hint gains at most 50% jitter; 200ms always covers it.
		clk.Advance(200 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SubmitRetry: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitRetry did not complete after the final admit")
	}
	if got := cl.CoveredFrom(); got != 1 {
		t.Errorf("CoveredFrom = %d, want 1 from the stub ack", got)
	}
	if s := cl.Session(); s == nil || len(s.Entries) != 1 || s.Entries[0].ID != 7 {
		t.Errorf("session = %+v, want the stub ack's request ID 7", s)
	}
}

// Retrieve's reconnect backoff must run on the injected clock too: with the
// broadcast address refusing connections, each failed redial parks the
// retrieval on the fake clock for the capped, doubling, jittered delay, and
// only advancing the clock lets it dial again — no wall-clock sleeps.
func TestReconnectBackoffOnInjectedClock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srvEnd, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The downlink dies and the address goes dark: every redial is refused.
	srvEnd.Close()
	ln.Close()

	clk := control.NewFake(time.Unix(0, 0))
	// A listen-only client (no uplink), so recovery has nothing to resubmit.
	cl := &Client{
		model: core.DefaultSizeModel(),
		chans: []*chanStream{{conn: conn, src: newFrameSource(conn), addr: addr}},
		Clock: clk,
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		stats ClientStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		_, stats, err := cl.Retrieve(ctx, xpath.MustParse("/nitf"))
		done <- result{stats, err}
	}()
	parked := func(what string) {
		t.Helper()
		waitForWaiter(t, clk)
		select {
		case r := <-done:
			t.Fatalf("%s: Retrieve returned instead of backing off: %v", what, r.err)
		default:
		}
	}
	// First failed redial: a wait of base + at most 50% jitter.
	parked("first redial refused")
	clk.Advance(reconnectBaseDelay * 3 / 2)
	// Second failed redial: the delay doubled, so the first wait's maximum no
	// longer covers it.
	parked("second redial refused")
	clk.Advance(reconnectBaseDelay * 3 / 2)
	if clk.Waiters() != 1 {
		t.Fatalf("doubled backoff expired within the base delay (waiters = %d)", clk.Waiters())
	}
	// The address comes back; the rest of the doubled wait elapses and the
	// next redial lands.
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer ln.Close()
	clk.Advance(reconnectBaseDelay * 3 / 2)
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	redialed, err := ln.Accept()
	if err != nil {
		t.Fatalf("no redial after the backoff elapsed: %v", err)
	}
	cancel()
	redialed.Close() // unblocks the read; the loop then sees the cancelled context
	r := <-done
	if r.err == nil || r.stats.Reconnects != 1 {
		t.Errorf("Retrieve = %v with %d reconnects, want the context's error after exactly one", r.err, r.stats.Reconnects)
	}
}
