package netcast

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/control"
	"repro/internal/netcast/transport"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// stubConn is the server end of one uplink connection in a stub server:
// requests come off it with next, responses go back with respond.
type stubConn struct {
	conn net.Conn
	tr   *transport.Reader
	enc  *transport.Encoder
}

// next reads one request and the stream it came on.
func (sc *stubConn) next() (stream int64, t wire.FrameType, payload []byte, err error) {
	fr, err := sc.tr.Next()
	if err != nil {
		return 0, 0, nil, err
	}
	t, payload, err = decodeInner(fr.Inner)
	return fr.Stream, t, payload, err
}

// respond answers on stream.
func (sc *stubConn) respond(stream int64, t wire.FrameType, payload []byte) error {
	inner, err := wire.AppendFrame(nil, t, payload)
	if err != nil {
		return err
	}
	env, err := sc.enc.Encode(stream, inner)
	if err != nil {
		return err
	}
	_, err = sc.conn.Write(env)
	return err
}

// stubUplink serves every uplink connection to a loopback listener with
// handle, once it has answered the connection's hello with a grant of
// credit, and returns the listener's address.
func stubUplink(t *testing.T, credit uint32, handle func(*stubConn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := transport.ReadHello(br); err != nil {
					return
				}
				if transport.WriteHello(conn, transport.Hello{Mux: true, Credit: credit}) != nil {
					return
				}
				handle(&stubConn{conn: conn, tr: transport.NewReader(br), enc: transport.NewEncoder(false, 0)})
			}()
		}
	}()
	return ln.Addr().String()
}

// muteListener accepts connections, reads whatever they send and never
// answers; it returns the listener's address.
func muteListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestLateAckIsNotCreditedToTheNextQuery: the server answers a stream's
// frames in order, so an ack that arrives after its query timed out answers
// that query. The next query must skip it and report its own ack's cycle,
// and the late ack must hand back the credit its query spent.
func TestLateAckIsNotCreditedToTheNextQuery(t *testing.T) {
	const credit = 2
	releaseFirst := make(chan struct{})
	addr := stubUplink(t, credit, func(sc *stubConn) {
		for i := 1; ; i++ {
			stream, _, _, err := sc.next()
			if err != nil {
				return
			}
			if i == 1 {
				<-releaseFirst // the first ack goes out only after its timeout
			}
			// Ack i names cycle 10·i and request ID i.
			if sc.respond(stream, wire.FrameAck, []byte(fmt.Sprintf("ok:%d:%d", 10*i, i))) != nil {
				return
			}
		}
	})
	clk := control.NewFake(time.Unix(0, 0))
	m, err := DialMux(addr, MuxConfig{AckTimeout: time.Second, Clock: clk})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer m.Close()
	lc, err := m.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	q := xpath.MustParse("/nitf")

	first := make(chan error, 1)
	go func() { first <- lc.Submit(q) }()
	var err1 error
	for deadline := time.Now().Add(10 * time.Second); ; {
		if clk.Waiters() > 0 {
			clk.Advance(time.Second)
		}
		select {
		case err1 = <-first:
		case <-time.After(5 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("first Submit never timed out")
			}
			continue
		}
		break
	}
	if err1 == nil {
		t.Fatal("first Submit was acked before its ack was sent")
	}
	close(releaseFirst)

	for i := 2; i <= 3; i++ {
		done := make(chan error, 1)
		go func() { done <- lc.Submit(q) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Submit %d never completed", i)
		}
		if got, want := lc.CoveredFrom(), int64(10*i); got != want {
			t.Errorf("Submit %d: CoveredFrom = %d, want %d from its own ack", i, got, want)
		}
	}
	if got := len(lc.tokens); got != credit {
		t.Errorf("%d of %d credits back after the late ack", got, credit)
	}
}

// TestDialMuxHandshakeHonoursAckTimeout: the hello reply is waited for at
// most the configured AckTimeout, not the 10 s default.
func TestDialMuxHandshakeHonoursAckTimeout(t *testing.T) {
	addr := muteListener(t)
	start := time.Now()
	m, err := DialMux(addr, MuxConfig{AckTimeout: 100 * time.Millisecond})
	if err == nil {
		m.Close()
		t.Fatal("DialMux succeeded against a listener that never replies")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("DialMux took %v to fail, want ~100ms", elapsed)
	}
}

// TestServerRefusesUplinkWithoutHello: every uplink opens with the transport
// hello; a connection that sends a bare query frame instead gets no ack and
// is closed.
func TestServerRefusesUplinkWithoutHello(t *testing.T) {
	srv, _ := startServer(t, broadcast.TwoTierMode)
	conn, err := net.Dial("tcp", srv.UplinkAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	query, err := wire.AppendFrame(nil, wire.FrameQuery, []byte("/nitf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var nerr net.Error
	switch {
	case n > 0:
		t.Fatal("server answered a connection that sent no hello")
	case errors.As(err, &nerr) && nerr.Timeout():
		t.Fatal("server kept a connection that sent no hello")
	case err == nil:
		t.Fatal("read returned neither data nor an error")
	}
}
