// Command bcast-serve runs a live broadcast server over TCP: an uplink port
// accepting XPath query frames and a broadcast port streaming cycles to any
// subscriber (try cmd/bcast-capture against it). With -selfdrive the server
// also feeds itself a trickle of synthetic requests so the channel is busy
// without external clients.
//
// Usage:
//
//	bcast-serve -uplink 127.0.0.1:9001 -broadcast 127.0.0.1:9000 -selfdrive
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-serve", flag.ContinueOnError)
	layout := cliflags.Layout{Mode: repro.TwoTierMode, Channels: 1, Capacity: 100_000}
	layout.Register(fs, "scheduler")
	src := cliflags.Source{Schema: "nitf", Docs: 50, Seed: 1}
	src.Register(fs)
	var limits cliflags.Limits
	limits.Register(fs)
	var (
		uplink    = fs.String("uplink", "127.0.0.1:0", "uplink listen address")
		bcast     = fs.String("broadcast", "127.0.0.1:0", "broadcast listen address")
		muxCredit = fs.Int("mux-credit", 0, "per-stream flow-control window granted to multiplexed uplinks (0 = default)")
		muxCli    = fs.Int("mux-clients", 0, "with -selfdrive: fan the request trickle over this many logical clients on one multiplexed uplink connection (0 = plain client)")
		interval  = fs.Duration("interval", 100*time.Millisecond, "cycle pacing")
		selfdrive = fs.Bool("selfdrive", false, "submit synthetic requests continuously")
		duration  = fs.Duration("for", 0, "stop after this long (default: run until interrupted)")

		maxPending  = fs.Int("max-pending", 0, "admission cap on the pending query set (0 = unlimited)")
		uplinkRate  = fs.Float64("uplink-rate", 0, "per-connection query rate limit in queries/s (0 = unlimited)")
		uplinkBurst = fs.Int("uplink-burst", 0, "token-bucket burst for -uplink-rate (default 8)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled)")

		stateDir  = fs.String("state-dir", "", "durability journal directory: ack-after-durability admissions, warm restart on the same directory (empty = in-memory)")
		fsync     = fs.Bool("fsync", false, "fsync the journal on every append (survives power loss, not just process death)")
		snapEvery = fs.Int("snapshot-every", 0, "journal records between compacting snapshots (0 = default, negative = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	coll, err := src.Load()
	if err != nil {
		return err
	}
	srv, err := repro.StartBroadcastServer(repro.BroadcastServerConfig{
		Collection:    coll,
		Mode:          layout.Mode,
		IndexEncoding: layout.Encoding,
		Channels:      layout.Channels,
		CycleCapacity: layout.Capacity,
		CycleInterval: *interval,
		UplinkAddr:    *uplink,
		BroadcastAddr: *bcast,
		Limits:        limits.Engine(),
		MaxPending:    *maxPending,
		Compress:      layout.Compress,
		MuxCredit:     *muxCredit,
		UplinkRate:    *uplinkRate,
		UplinkBurst:   *uplinkBurst,
		StateDir:      *stateDir,
		Fsync:         *fsync,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	if *stateDir != "" {
		fmt.Printf("journal   %s (epoch %x, generation %d, %d pending recovered)\n",
			*stateDir, srv.Epoch(), srv.Generation(), srv.RecoveredPending())
	}
	if *pprofAddr != "" {
		// DefaultServeMux carries the net/http/pprof handlers via its
		// blank import; the listener is opt-in and should stay loopback.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer ln.Close()
		fmt.Printf("pprof     http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "bcast-serve: pprof:", err)
			}
		}()
	}
	fmt.Printf("serving %d documents (%d bytes) in %s mode, %s index encoding\n",
		coll.Len(), coll.TotalSize(), layout.Mode, layout.Encoding)
	if layout.Compress {
		fmt.Println("transport per-frame DEFLATE on (downlink compressed; uplinks negotiate at hello)")
	}
	fmt.Printf("uplink    %s\n", srv.UplinkAddr())
	if addrs := srv.ChannelAddrs(); len(addrs) > 1 {
		for ch, a := range addrs {
			fmt.Printf("channel %d %s\n", ch, a)
		}
	} else {
		fmt.Printf("broadcast %s\n", srv.BroadcastAddr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	driverDone := make(chan struct{})
	driverStop := make(chan struct{})
	if *selfdrive {
		pool, err := repro.GenerateQueries(coll, 30, 5, 0.1, src.Seed+1)
		if err != nil {
			return err
		}
		var submit func(i int) error
		var closeDriver func()
		if *muxCli > 0 {
			// Fan the trickle over logical clients sharing one multiplexed
			// uplink connection, exercising the stream framing the way a
			// gateway proxying many mobile clients would.
			mx, err := repro.DialBroadcastMux(srv.UplinkAddr(), repro.BroadcastMuxConfig{Compress: layout.Compress})
			if err != nil {
				return err
			}
			clients := make([]*repro.BroadcastLogicalClient, *muxCli)
			for i := range clients {
				if clients[i], err = mx.Open(); err != nil {
					mx.Close()
					return err
				}
			}
			fmt.Printf("selfdrive %d logical clients on one mux uplink (compressed=%v)\n",
				*muxCli, mx.Compressed())
			submit = func(i int) error { return clients[i%len(clients)].Submit(pool[i%len(pool)]) }
			closeDriver = mx.Close
		} else {
			cl, err := repro.DialBroadcastChannels(srv.UplinkAddr(), srv.ChannelAddrs(), repro.SizeModel{})
			if err != nil {
				return err
			}
			submit = func(i int) error { return cl.Submit(pool[i%len(pool)]) }
			closeDriver = func() { cl.Close() }
		}
		go func() {
			defer close(driverDone)
			defer closeDriver()
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			i := 0
			for {
				select {
				case <-driverStop:
					return
				case <-ticker.C:
					err := submit(i)
					var rej *repro.BroadcastRejectedError
					if errors.As(err, &rej) {
						// Admission control shedding the self-driver is
						// backpressure, not failure: skip this tick.
						continue
					}
					if err != nil {
						return
					}
					i++
				}
			}
		}()
	} else {
		close(driverDone)
	}

	if *duration > 0 {
		select {
		case <-stop:
		case <-time.After(*duration):
		}
	} else {
		<-stop
	}
	close(driverStop)
	<-driverDone
	st := srv.Stats()
	fmt.Printf("shutting down after %d cycles\n", st.Cycles)
	fmt.Printf("engine: %s\n", st.Engine)
	if st.RejectedRate > 0 || st.RejectedPending > 0 {
		fmt.Printf("rejected: %d rate-limited, %d over pending cap\n", st.RejectedRate, st.RejectedPending)
	}
	if st.SubscribersDropped > 0 {
		fmt.Printf("subscribers dropped: %d (full queue or failed write)\n", st.SubscribersDropped)
	}
	return nil
}
