package peer

// obs_test.go pins the one source of serve-plane counts: a ServerMux
// holds one set of mux.* and serve.* counter handles, SetObs resolves
// them from a registry — where they are the registry's own counters,
// shared by every mux of the node — and concurrent increments are
// race-clean (run under -race in CI). On the fetch plane, each peer.*
// counter that has a PeerStats twin agrees with the sum of it.

import (
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/obs"
)

// TestServerStatsReadRegistry hammers two muxes' serve.* counters, sharing
// one registry, from many goroutines while a reader polls the registry,
// then checks that the registry reports every increment as node totals.
func TestServerStatsReadRegistry(t *testing.T) {
	m, sibling := NewServerMux(), NewServerMux()
	r := obs.NewRegistry()
	m.SetObs(r)
	sibling.SetObs(r)
	names := []string{"serve.connections", "serve.symbols_sent", "serve.symbols_encoded", "serve.rejected", "serve.malformed"}

	const workers, per = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		// Torn-read audit: reading the registry must be safe against
		// concurrent increments (-race is the judge here, monotonicity
		// the assertion).
		defer readers.Done()
		last := make([]int64, len(names))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, name := range names {
				v := r.Counter(name).Value()
				if v < last[i] {
					t.Errorf("registry %s went backwards under concurrent increments", name)
					return
				}
				last[i] = v
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.served.connections.Inc()
				sibling.served.symbolsSent.Inc()
				m.served.symbolsEncoded.Inc()
				m.served.rejected.Inc()
				sibling.served.malformed.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(workers * per)
	for _, name := range names {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestMuxStatsReadRegistry is the same audit for the mux's
// admission-plane tallies.
func TestMuxStatsReadRegistry(t *testing.T) {
	m, sibling := NewServerMux(), NewServerMux()
	r := obs.NewRegistry()
	m.SetObs(r)
	sibling.SetObs(r)

	const workers, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.met.connections.Inc()
				m.met.rejected.Inc()
				sibling.met.busy.Inc()
				m.met.banned.Inc()
				sibling.met.malformed.Inc()
			}
		}()
	}
	wg.Wait()

	want := int64(workers * per)
	for _, name := range []string{
		"mux.connections", "mux.rejected", "mux.busy", "mux.banned", "mux.malformed",
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestServerWithoutObsStillCounts pins the unwired path: muxes with no
// registry keep exact tallies of their own, each apart from the other's.
func TestServerWithoutObsStillCounts(t *testing.T) {
	m, other := NewServerMux(), NewServerMux()
	for i := 0; i < 3; i++ {
		m.served.connections.Inc()
	}
	if got, apart := m.served.connections.Value(), other.served.connections.Value(); got != 3 || apart != 0 {
		t.Fatalf("unwired muxes counted %d and %d connections, want 3 and 0", got, apart)
	}
}

// observe attaches a fresh registry to mux and returns it: the one place
// a test reads the mux's counts from.
func observe(mux *ServerMux) *obs.Registry {
	r := obs.NewRegistry()
	mux.SetObs(r)
	return r
}

// TestRegistryTwinsAgreeWithPeerStats: after a fetch against faulty peers
// — an address nothing listens on, a corrupting peer, a mute one, a
// partial sender whose first connection dies mid-batch, and one dropped
// mid-transfer — each peer.* counter that has a PeerStats twin equals the
// sum of that twin over the fetch's sessions. The two partial senders
// cannot complete the content; the full sender that does joins once the
// mute peer has stalled.
func TestRegistryTwinsAgreeWithPeerStats(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 200, 48)
	defer h.pn.close() // stop the accept loops before the leak check
	h.addFull("seed", 0)
	h.addPartial("part", 120, 5)
	h.addPartial("cut", 60, 7)
	h.pn.wrapNth("cut", 1, func(c net.Conn) net.Conn { return &cutConn{Conn: c, left: 600} })
	h.pn.add("evil", junkServer{})
	h.pn.add("mute", muteServer{info: h.info})
	h.pn.add("dropped", muteServer{info: h.info})

	reg := obs.NewRegistry()
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:               8,
		Timeout:             5 * time.Second,
		StallTimeout:        50 * time.Millisecond,
		MaxReconnects:       3,
		ReconnectBackoff:    time.Millisecond,
		MaxReconnectBackoff: 4 * time.Millisecond,
		Dial:                h.pn.dial,
		Obs:                 reg,
	})
	run := h.runAsync(o, "part", "cut", "evil", "mute", "dropped", "nowhere")
	h.await("the session to drop", 5*time.Second, func() bool {
		for _, st := range o.Sessions() {
			if st.Addr == "dropped" {
				return true
			}
		}
		return false
	})
	if !o.DropPeer("dropped") {
		t.Fatal("DropPeer found no live session")
	}
	if o.DropPeer("dropped") {
		t.Fatal("DropPeer evicted a session twice")
	}
	h.await("a stall", 5*time.Second, func() bool { return reg.Counter("peer.stalls").Value() > 0 })
	if err := o.AddPeer("seed"); err != nil {
		t.Fatal(err)
	}
	res := run.wait(t)
	h.verify(res)

	for _, c := range []struct {
		name string
		twin func(PeerStats) int
	}{
		{"peer.redials", func(p PeerStats) int { return p.Reconnects }},
		{"peer.dial_failures", func(p PeerStats) int { return p.DialFailures }},
		{"peer.stalls", func(p PeerStats) int { return p.Stalls }},
		{"peer.resets", func(p PeerStats) int { return p.Resets }},
		{"peer.corrupt_frames", func(p PeerStats) int { return p.CorruptFrames }},
		{"peer.refreshes_sent", func(p PeerStats) int { return p.RefreshesSent }},
		{"peer.sessions{event=evicted}", func(p PeerStats) int {
			if p.Evicted {
				return 1
			}
			return 0
		}},
	} {
		want := 0
		for _, p := range res.Peers {
			want += c.twin(p)
		}
		got := reg.Counter(c.name).Value()
		t.Logf("%s = %d", c.name, got)
		if got != int64(want) {
			t.Errorf("%s = %d, but the sessions' PeerStats sum to %d", c.name, got, want)
		}
	}
	if st := peerByAddr(t, res, "nowhere"); st.DialFailures == 0 {
		t.Fatalf("no dial failure at an address nothing listens on: %+v", st)
	}
	if st := peerByAddr(t, res, "evil"); st.CorruptFrames == 0 {
		t.Fatalf("no corrupt frame from the corrupting peer: %+v", st)
	}
	if st := peerByAddr(t, res, "cut"); st.Resets == 0 {
		t.Fatalf("no reset from the connection that died mid-batch: %+v", st)
	}
	if st := peerByAddr(t, res, "dropped"); !st.Evicted {
		t.Fatalf("the dropped session is not marked evicted: %+v", st)
	}
}
