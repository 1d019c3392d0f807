package netcast

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// writtenDoc is a document the tests' writers add under id: nothing in the
// test collection has a <written> child, so no query over /nitf/head or
// /nitf/body ever answers it.
func writtenDoc(id xmldoc.DocID, version int) *xmldoc.Document {
	return xmldoc.NewDocument(id, xmldoc.El("nitf",
		xmldoc.TextEl("written", strings.Repeat(fmt.Sprintf("(version %d of document %d)", version, id), 1+version%4))))
}

// TestOwnerServesConcurrentClients runs every kind of caller against one live
// journaled server at once — multiplexed submitters (admitted, refused at the
// pending cap, or refused for an empty answer), session-resume handshakes, two
// writers adding, removing and re-adding their own documents, and Stats
// pollers — while the test retrieves queries the writers cannot touch. The
// cycle loop owns the ledger and the engine, so under -race this shows that
// nothing reaches them from another goroutine; every retrieval must be exact
// and every Stats one snapshot.
func TestOwnerServesConcurrentClients(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 2 * time.Millisecond,
		MaxPending:    200,
		StateDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acks, resumes, writes, polls atomic.Int64
	// loop runs step until the test stops it or step reports false.
	loop := func(step func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !step() {
					return
				}
			}
		}()
	}

	mx, err := DialMux(srv.UplinkAddr(), MuxConfig{})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer mx.Close()
	pool := []xpath.Path{xpath.MustParse("/nitf"), xpath.MustParse("/nitf/head"), xpath.MustParse("//written")}
	for i := 0; i < 4; i++ {
		lc, err := mx.Open()
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		n := i
		loop(func() bool {
			n++
			switch err := lc.Submit(pool[n%len(pool)]); {
			case err == nil:
				acks.Add(1)
			case errors.Is(err, engine.ErrOverload), strings.Contains(err.Error(), "empty result set"):
			default:
				t.Errorf("mux submit: %v", err)
				return false
			}
			return true
		})
	}

	resumer, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer resumer.Close()
	for _, q := range pool[:2] {
		if err := resumer.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	loop(func() bool {
		sts, err := resumer.Resume()
		if err != nil || len(sts) != 2 {
			t.Errorf("Resume = %d statuses, %v; want one per query", len(sts), err)
			return false
		}
		resumes.Add(1)
		return true
	})

	live := make([]map[xmldoc.DocID]bool, 2)
	for w := range live {
		live[w] = make(map[xmldoc.DocID]bool)
		rng, mine := rand.New(rand.NewSource(int64(w))), live[w]
		loop(func() bool {
			id := xmldoc.DocID(3000 + 10*w + rng.Intn(4))
			if mine[id] {
				if err := srv.RemoveDocument(id); err != nil {
					t.Errorf("RemoveDocument(%d): %v", id, err)
					return false
				}
				delete(mine, id)
			} else {
				if err := srv.AddDocument(writtenDoc(id, int(writes.Load()))); err != nil {
					t.Errorf("AddDocument(%d): %v", id, err)
					return false
				}
				mine[id] = true
			}
			writes.Add(1)
			time.Sleep(200 * time.Microsecond)
			return true
		})
	}

	for i := 0; i < 2; i++ {
		loop(func() bool {
			st := srv.Stats()
			if st.Cycles != st.Engine.Cycles || st.CycleError != "" {
				t.Errorf("Stats: %d cycles against the engine's %d, cycle error %q", st.Cycles, st.Engine.Cycles, st.CycleError)
				return false
			}
			_, _, _ = srv.Pending(), srv.Cycles(), srv.NumDocs()
			polls.Add(1)
			return true
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	// At least three rounds, and for at least a second of the others' churn.
	for round, until := 0, time.Now().Add(time.Second); round < 3 || time.Now().Before(until); round++ {
		for _, q := range []xpath.Path{xpath.MustParse("/nitf/head"), xpath.MustParse("/nitf/body")} {
			if err := cl.SubmitRetry(ctx, q); err != nil {
				t.Fatalf("SubmitRetry %s: %v", q, err)
			}
			docs, _, err := cl.Retrieve(ctx, q)
			if err != nil {
				t.Fatalf("Retrieve %s: %v", q, err)
			}
			checkRetrieved(t, coll, docs, q.MatchingDocs(coll))
		}
	}
	close(stop)
	wg.Wait()

	if acks.Load() == 0 || resumes.Load() == 0 || writes.Load() == 0 || polls.Load() == 0 {
		t.Fatalf("a caller never got through: %d acks, %d resumes, %d writes, %d polls",
			acks.Load(), resumes.Load(), writes.Load(), polls.Load())
	}
	want := coll.Len() + len(live[0]) + len(live[1])
	if n := srv.NumDocs(); n != want {
		t.Errorf("NumDocs = %d, the writers left %d", n, want)
	}
}

// TestShutdownUnderSubmitFlood shuts a journaled server down while eight
// clients submit in tight loops. No frame may join the uplink's in-flight
// count once the drain has started (a WaitGroup Add racing Shutdown's Wait
// panics, and -race reports it), and every acked request must be in the
// state directory: the loop admits the frames the drain waits for before it
// stops. The interval is a minute, so nothing airs and every acked request is
// still pending.
func TestShutdownUnderSubmitFlood(t *testing.T) {
	coll := testCollection(t)
	q := xpath.MustParse("/nitf")
	for trial := 0; trial < 150; trial++ {
		dir := t.TempDir()
		srv, err := StartServer(ServerConfig{
			Collection:    coll,
			CycleCapacity: coll.TotalSize(),
			CycleInterval: time.Minute,
			StateDir:      dir,
		})
		if err != nil {
			t.Fatalf("StartServer: %v", err)
		}
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			acked []int64
		)
		clients := make([]*Client, 8)
		for i := range clients {
			if clients[i], err = Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{}); err != nil {
				t.Fatalf("Dial: %v", err)
			}
			wg.Add(1)
			go func(cl *Client) {
				defer wg.Done()
				for {
					_, id, err := cl.up.submit(q, cl.AckTimeout, control.Real{})
					if err != nil {
						return // refused by the drain, or the connection closed
					}
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}(clients[i])
		}
		time.Sleep(3 * time.Millisecond)
		srv.Shutdown()
		for _, cl := range clients {
			cl.Close()
		}
		wg.Wait()

		st, err := journal.ReadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		pending := make(map[int64]bool, len(st.Pending))
		for _, r := range st.Pending {
			pending[r.ID] = true
		}
		for _, id := range acked {
			if !pending[id] {
				t.Fatalf("trial %d: request %d was acked but is not in the state directory (%d acked, %d journaled)",
					trial, id, len(acked), len(st.Pending))
			}
		}
	}
}

// TestStatsIsOneSnapshot samples Stats for two seconds while one client keeps
// a fast in-memory server airing. Stats reads the ledger's cycle count and the
// engine's in one turn of the cycle loop, so they agree in every sample: a
// cycle is assembled, aired and committed within one turn.
func TestStatsIsOneSnapshot(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		coll := testCollection(t)
		srv, err := StartServer(ServerConfig{
			Collection:    coll,
			CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
			CycleInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartServer: %v", err)
		}
		defer srv.Shutdown()
		sampleStats(t, srv)
	})
}

// sampleStats keeps srv airing from one client and checks every Stats sample
// is one snapshot.
func sampleStats(t *testing.T, srv *Server) {
	t.Helper()
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		q := xpath.MustParse("/nitf/head")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if srv.Pending() > 50 {
				time.Sleep(100 * time.Microsecond)
			} else if cl.Submit(q) != nil {
				return
			}
		}
	}()
	samples, first := 0, srv.Cycles()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); samples++ {
		if st := srv.Stats(); st.Cycles != st.Engine.Cycles {
			t.Fatalf("sample %d: Stats reports %d cycles, its engine metrics %d", samples, st.Cycles, st.Engine.Cycles)
		}
	}
	close(stop)
	<-fed
	if aired := srv.Cycles() - first; aired < 10 {
		t.Fatalf("only %d cycles aired while Stats was sampled %d times", aired, samples)
	}
}

// orderProbe records, in order, the engine events that bracket a cycle's
// assembly and the collection writes.
type orderProbe struct {
	engine.NopProbe
	mu     sync.Mutex
	events []string
}

func (p *orderProbe) record(ev string) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

func (p *orderProbe) CycleDone()        { p.record("cycle") }
func (p *orderProbe) CacheInvalidated() { p.record("write") }
func (p *orderProbe) StageDone(stage string, _ time.Duration, _, _ int) {
	if stage == engine.StageEncode {
		p.record("encode")
	}
}

// TestWritesLandBetweenCycles adds and removes documents while a fast server
// airs cycles. A write is an event on the cycle loop, and a whole cycle is
// one turn of it, so no write may fall between a cycle's assembly
// (CycleDone) and its encoding (StageEncode), where it would change the
// collection under a plan already made.
func TestWritesLandBetweenCycles(t *testing.T) {
	coll := testCollection(t)
	probe := &orderProbe{}
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: time.Millisecond,
		Probe:         probe,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		q := xpath.MustParse("/nitf/head")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if srv.Pending() > 50 {
				time.Sleep(100 * time.Microsecond)
			} else if cl.Submit(q) != nil {
				return
			}
		}
	}()
	present := make(map[xmldoc.DocID]bool)
	for i, deadline := 0, time.Now().Add(2*time.Second); time.Now().Before(deadline); i++ {
		id := xmldoc.DocID(4000 + i%8)
		if present[id] {
			if err := srv.RemoveDocument(id); err != nil {
				t.Fatalf("RemoveDocument(%d): %v", id, err)
			}
		} else if err := srv.AddDocument(writtenDoc(id, i)); err != nil {
			t.Fatalf("AddDocument(%d): %v", id, err)
		}
		present[id] = !present[id]
	}
	close(stop)
	<-fed
	srv.Shutdown()

	probe.mu.Lock()
	defer probe.mu.Unlock()
	inCycle := false
	cycles, writes := 0, 0
	for i, ev := range probe.events {
		switch ev {
		case "cycle":
			inCycle = true
			cycles++
		case "encode":
			inCycle = false
		case "write":
			writes++
			if inCycle {
				t.Fatalf("event %d: a write landed between cycle %d's assembly and its encoding", i, cycles)
			}
		}
	}
	if cycles < 10 || writes < 100 {
		t.Fatalf("%d cycles and %d writes: too few to interleave", cycles, writes)
	}
}
