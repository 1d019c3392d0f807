package repro

import (
	"context"
	"io"

	"repro/internal/netcast"
)

// Networked broadcast (package netcast): the paper's Fig. 1 system over real
// TCP sockets — an uplink for query submission and a broadcast downlink
// streaming cycle frames in the wire format. Every uplink is a multiplexed
// connection (BroadcastMux) that opens with a transport hello; a
// BroadcastClient submits on the one stream of a private one. Every frame carries a CRC32C
// trailer; clients survive corruption by rescanning for the next cycle head
// and survive connection loss by redialling with capped backoff, so a lossy
// channel costs extra cycles, never wrong results.
type (
	// BroadcastServer is a running broadcast station.
	BroadcastServer = netcast.Server
	// BroadcastServerConfig parameterises StartBroadcastServer, including
	// the uplink idle timeout and per-subscriber send queue depth.
	BroadcastServerConfig = netcast.ServerConfig
	// BroadcastClient is a mobile client over TCP. Its AckTimeout bounds
	// the wait for submission acks and, when it redials its uplink, for the
	// server's hello reply.
	BroadcastClient = netcast.Client
	// BroadcastClientStats accounts one networked retrieval, including the
	// Resyncs and Reconnects spent recovering from channel faults.
	BroadcastClientStats = netcast.ClientStats
	// BroadcastServerStats is a point-in-time snapshot of a running server
	// ((*BroadcastServer).Stats), including the assembly engine's pipeline
	// telemetry and the admission-control rejection counters.
	BroadcastServerStats = netcast.ServerStats
	// BroadcastRejectedError reports a query refused by the server's
	// admission control, carrying the retry-after hint. It satisfies
	// errors.Is(err, EngineOverload).
	BroadcastRejectedError = netcast.RejectedError
	// BroadcastSession is a client's resumable uplink session: the server
	// epoch/generation plus every acked submission. Capture it with
	// (*BroadcastClient).Session, adopt it on a fresh client with
	// AdoptSession, and replay it with Resume after a server restart.
	BroadcastSession = netcast.ClientSession
	// BroadcastSessionEntry is one acked submission in a resumable session.
	BroadcastSessionEntry = netcast.SessionEntry
	// BroadcastResumeStatus is one query's disposition from a session-resume
	// handshake: ResumeResumed, ResumeServed or ResumeResubmit.
	BroadcastResumeStatus = netcast.ResumeStatus
	// BroadcastMux is a multiplexed uplink connection: one TCP socket
	// carrying many logical clients on varint-tagged streams with per-stream
	// flow-control credit. Open logical clients with (*BroadcastMux).Open.
	BroadcastMux = netcast.Mux
	// BroadcastMuxConfig parameterises DialBroadcastMux, including whether to
	// request per-frame DEFLATE on the uplink and the ack timeout, which
	// also bounds the hello handshake.
	BroadcastMuxConfig = netcast.MuxConfig
	// BroadcastLogicalClient is one logical client on a multiplexed uplink:
	// it submits queries under its own stream ID and sees only its own acks.
	BroadcastLogicalClient = netcast.LogicalClient
)

// Session-resume dispositions ((*BroadcastClient).Resume).
const (
	// ResumeResumed: the restarted server recovered the request from its
	// journal; the original ack stands.
	ResumeResumed = netcast.ResumeResumed
	// ResumeServed: the journal shows the request fully delivered before the
	// restart (Detail carries the retiring cycle).
	ResumeServed = netcast.ResumeServed
	// ResumeResubmit: the server has no durable record (fresh state
	// directory); the client resubmitted the query under a new ID.
	ResumeResubmit = netcast.ResumeResubmit
)

// StartBroadcastServer binds the uplink and broadcast listeners and starts
// the cycle loop. Stop with (*BroadcastServer).Shutdown.
func StartBroadcastServer(cfg BroadcastServerConfig) (*BroadcastServer, error) {
	return netcast.StartServer(cfg)
}

// DialBroadcast connects a client to a server's uplink and broadcast
// addresses; the uplink is a private, uncompressed mux with one stream. A
// zero SizeModel selects the default widths (which must match the
// server's).
func DialBroadcast(uplinkAddr, broadcastAddr string, model SizeModel) (*BroadcastClient, error) {
	return netcast.Dial(uplinkAddr, broadcastAddr, model)
}

// DialBroadcastChannels connects a client to a multichannel server: one
// uplink plus every channel's broadcast address, in channel order (see
// (*BroadcastServer).ChannelAddrs). A single address behaves exactly like
// DialBroadcast.
func DialBroadcastChannels(uplinkAddr string, channelAddrs []string, model SizeModel) (*BroadcastClient, error) {
	return netcast.DialChannels(uplinkAddr, channelAddrs, model)
}

// DialBroadcastMux opens a multiplexed uplink connection: one TCP socket
// over which (*BroadcastMux).Open mints any number of logical clients, each
// submitting on its own flow-controlled stream. Compression is granted only
// when both ends opt in (BroadcastMuxConfig.Compress and
// BroadcastServerConfig.Compress).
func DialBroadcastMux(uplinkAddr string, cfg BroadcastMuxConfig) (*BroadcastMux, error) {
	return netcast.DialMux(uplinkAddr, cfg)
}

// CycleRecord is one captured broadcast cycle.
type CycleRecord = netcast.CycleRecord

// RecordBroadcast subscribes to a broadcast address and writes numCycles
// complete cycles into w as a capture file.
func RecordBroadcast(ctx context.Context, broadcastAddr string, numCycles int, w io.Writer) (int, error) {
	return netcast.Record(ctx, broadcastAddr, numCycles, w)
}

// ReadBroadcastCapture parses a capture file into cycle records whose index
// and offset segments can be decoded and inspected. A capture is the
// downlink's bytes as they came off the air, bare or compressed, behind one
// header; files of the retired XBCAST1 to XBCAST3 formats are refused.
func ReadBroadcastCapture(r io.Reader) ([]CycleRecord, error) {
	return netcast.ReadCapture(r)
}
