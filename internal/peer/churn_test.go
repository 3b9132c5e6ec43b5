package peer

// churn_test.go exercises the §2.1 adaptivity of the swarm engine over
// in-process net.Pipe transports (each dial one fabric wire to a
// ServerMux): peers dying mid-batch and redialing,
// peers joining mid-transfer, and utility-ranked eviction at the peer
// cap. Everything runs under -race in CI.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"icd/internal/faultnet"
)

// connServer is anything that can serve one established connection — a
// *ServerMux, or one of the hostile fakes.
type connServer interface {
	ServeConn(net.Conn) error
}

// front puts content servers behind a ServerMux of their own: the front
// door every connection enters through. A server's own gossip directory
// and penalty box survive registration on a mux that has none.
func front(srvs ...*Server) *ServerMux {
	mux := NewServerMux()
	for _, s := range srvs {
		if err := mux.Register(s); err != nil {
			panic(err) // registering a duplicate is a harness bug
		}
	}
	return mux
}

// pipeNet is the peer suite's view of the one in-process pipe transport,
// faultnet.PipeNet: add registers a server behind a real listener and
// accept loop, dial goes through the shared transport (optionally via a
// connection-wrapping hook for failure injection). Every dial carries
// the constant source identity "pipe", so all test clients share one
// inbound penalty identity — the semantics these suites were written
// against. close tears the listeners down (tests that defer a
// goroutine-leak check close the net first).
type pipeNet struct {
	fn *faultnet.PipeNet

	mu    sync.Mutex
	wrap  map[string]func(net.Conn) net.Conn
	dials map[string]int
	lns   []net.Listener
}

func newPipeNet() *pipeNet {
	return &pipeNet{
		fn:    faultnet.NewPipeNet(),
		wrap:  make(map[string]func(net.Conn) net.Conn),
		dials: make(map[string]int),
	}
}

func (pn *pipeNet) add(addr string, s connServer) string {
	ln, err := pn.fn.Listen(addr)
	if err != nil {
		panic(err) // re-binding a live test address is a harness bug
	}
	pn.mu.Lock()
	pn.lns = append(pn.lns, ln)
	pn.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				s.ServeConn(c)
			}(conn)
		}
	}()
	return addr
}

// close shuts every registered listener down, unwinding the accept
// loops (their served connections unwind with the sessions using them).
func (pn *pipeNet) close() {
	pn.mu.Lock()
	lns := pn.lns
	pn.lns = nil
	pn.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}

// wrapAll installs a client-conn wrapper applied on every dial to addr
// (the harness uses it for read-throttled servers).
func (pn *pipeNet) wrapAll(addr string, w func(net.Conn) net.Conn) {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	pn.wrap[addr] = w
}

// wrapNth installs a client-conn wrapper applied on the nth dial (1-based)
// to addr; other dials pass through.
func (pn *pipeNet) wrapNth(addr string, n int, w func(net.Conn) net.Conn) {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	nth := n
	pn.wrap[addr] = func(c net.Conn) net.Conn {
		if pn.dials[addr] == nth {
			return w(c)
		}
		return c
	}
}

func (pn *pipeNet) dial(addr string) (net.Conn, error) {
	pn.mu.Lock()
	pn.dials[addr]++
	w := pn.wrap[addr]
	pn.mu.Unlock()
	client, err := pn.fn.Node("pipe").Dial(addr)
	if err != nil {
		return nil, err
	}
	if w != nil {
		pn.mu.Lock()
		client = w(client)
		pn.mu.Unlock()
	}
	return client, nil
}

func (pn *pipeNet) dialCount(addr string) int {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	return pn.dials[addr]
}

// cutConn kills the connection after limit bytes have been read — a
// peer dying mid-batch from the receiver's point of view.
type cutConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

func (c *cutConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	left := c.left
	c.mu.Unlock()
	if left <= 0 {
		c.Conn.Close()
		return 0, errors.New("cutConn: connection died mid-batch")
	}
	if len(p) > left {
		p = p[:left]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.left -= n
	c.mu.Unlock()
	return n, err
}

func TestPeerDiesMidBatchAndReconnects(t *testing.T) {
	info, data := testContent(t, 120, 64)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("full-1", front(srv))
	// First connection dies after ~20 symbol frames, mid-batch; the
	// session must redial and finish on the second connection.
	pn.wrapNth(addr, 1, func(c net.Conn) net.Conn {
		return &cutConn{Conn: c, left: 20 * (64 + 32)}
	})

	res, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch:            16,
		Timeout:          5 * time.Second,
		MaxReconnects:    3,
		ReconnectBackoff: 5 * time.Millisecond,
		Dial:             pn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch after mid-batch death")
	}
	if got := pn.dialCount(addr); got < 2 {
		t.Fatalf("expected a redial, saw %d dial(s)", got)
	}
	if res.Peers[0].Reconnects < 1 {
		t.Fatalf("reconnects not recorded: %+v", res.Peers[0])
	}
	if res.Peers[0].Err != nil {
		t.Fatalf("successful session must clear the error, got %v", res.Peers[0].Err)
	}
}

func TestPeerDiesWithoutRetriesIsTerminal(t *testing.T) {
	// The same death with MaxReconnects=0 (the default) must surface as
	// the session's terminal error — the pre-churn behavior.
	info, data := testContent(t, 100, 48)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("full-1", front(srv))
	pn.wrapNth(addr, 1, func(c net.Conn) net.Conn {
		return &cutConn{Conn: c, left: 10 * (48 + 32)}
	})
	res, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
	})
	if err == nil {
		t.Fatalf("incomplete download did not error (completed=%v)", res.Completed)
	}
	if pn.dialCount(addr) != 1 {
		t.Fatalf("dialed %d times, want 1", pn.dialCount(addr))
	}
}

func TestLateJoiningPeerContributes(t *testing.T) {
	h := newHarness(t, 120, 64)
	// The initial peer holds too little to complete the transfer; it
	// keeps polling (high useless tolerance) while a full sender joins
	// mid-transfer and finishes the job.
	stubAddr := h.addPartial("stub", 40, 9)
	fullAddr := h.addFull("late-full", 0)

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             16,
		Timeout:           5 * time.Second,
		MaxUselessBatches: 1 << 20, // the stub must outlive the late join
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, stubAddr)

	// Join once the engine is live (the first handshake has happened).
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeer(fullAddr); err != nil {
		t.Fatal(err)
	}
	res := run.wait(t)
	h.verify(res)
	var late *PeerStats
	for i := range res.Peers {
		if res.Peers[i].Addr == fullAddr {
			late = &res.Peers[i]
		}
	}
	if late == nil {
		t.Fatal("late peer missing from result stats")
	}
	if late.UsefulSymbols == 0 {
		t.Fatal("late-joining peer contributed nothing")
	}
}

func TestMaxPeersEvictsLowestUtility(t *testing.T) {
	h := newHarness(t, 120, 64)
	// The receiver starts holding everything the useless peer has, so
	// its utility stays 0; the useful partial peer scores higher. When a
	// third (full) peer joins at MaxPeers=2, the useless one is evicted.
	uselessSet := partialSymbols(t, h.info, h.data, 50, 4)
	useless, err := NewPartialServer(h.info, uselessSet)
	if err != nil {
		t.Fatal(err)
	}
	uselessAddr := h.pn.add("useless", front(useless))
	usefulAddr := h.addPartial("useful", 80, 5)
	fullAddr := h.addFull("full", 0)

	initial := make(map[uint64][]byte, len(uselessSet))
	for id, d := range uselessSet {
		initial[id] = d
	}
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           5 * time.Second,
		Initial:           initial,
		MaxPeers:          2,
		MaxUselessBatches: 1 << 20, // eviction must come from ranking, not uselessness
		Dial:              h.pn.dial,
	})
	run := h.runAsync(o, uselessAddr, usefulAddr)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Let the useful peer accumulate utility before forcing the re-rank.
	h.await("useful peer scoring utility", 5*time.Second, func() bool {
		for _, st := range o.Sessions() {
			if st.Addr == usefulAddr && st.Utility > 0 {
				return true
			}
		}
		return false
	})
	if err := o.AddPeer(fullAddr); err != nil {
		t.Fatal(err)
	}
	res := run.wait(t)
	h.verify(res)
	byAddr := make(map[string]PeerStats)
	for _, st := range res.Peers {
		byAddr[st.Addr] = st
	}
	if !byAddr[uselessAddr].Evicted {
		t.Fatalf("lowest-utility peer not evicted: %+v", byAddr[uselessAddr])
	}
	if byAddr[usefulAddr].Evicted {
		t.Fatalf("higher-utility peer evicted: %+v", byAddr[usefulAddr])
	}
	if byAddr[fullAddr].UsefulSymbols == 0 {
		t.Fatal("replacement peer contributed nothing")
	}
}

func TestDropPeerMidTransfer(t *testing.T) {
	h := newHarness(t, 100, 48)
	a1 := h.addFull("full-1", 0)
	a2 := h.addFull("full-2", 0)

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch: 8, Timeout: 5 * time.Second, Dial: h.pn.dial,
	})
	run := h.runAsync(o, a1, a2)
	if _, err := o.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !o.DropPeer(a1) {
		t.Log("peer already gone (transfer won the race) — acceptable")
	}
	res := run.wait(t)
	h.verify(res)
	if o.DropPeer("nope") {
		t.Fatal("DropPeer invented a session")
	}
}

func TestFetchContextCancel(t *testing.T) {
	info, data := testContent(t, 200, 64)
	// A stub that can never finish the transfer keeps the engine alive
	// until the context fires.
	stub, err := NewPartialServer(info, partialSymbols(t, info, data, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("stub", front(stub))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := FetchContext(ctx, []string{addr}, info.ID, FetchOptions{
		Batch:             8,
		Timeout:           30 * time.Second,
		MaxUselessBatches: 1 << 20, // only the context can end this
		Dial:              pn.dial,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled fetch must still return the partial state")
	}
	if res.Completed {
		t.Fatal("cancelled fetch claims completion")
	}
}

func TestFreshReceiverNegotiatesSummaryMidTransfer(t *testing.T) {
	// A receiver that connects empty-handed cannot summarize at
	// handshake (nothing to subtract), but once other sessions fill the
	// working set the refresh path must send a first summary —
	// otherwise partial senders blindly send everything they hold.
	info, data := testContent(t, 100, 32)
	s1, err := NewPartialServer(info, partialSymbols(t, info, data, 80, 11))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewPartialServer(info, partialSymbols(t, info, data, 80, 12))
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	a1 := pn.add("p1", front(s1))
	a2 := pn.add("p2", front(s2))
	res, err := Fetch([]string{a1, a2}, info.ID, FetchOptions{
		Batch:          8,
		Timeout:        5 * time.Second,
		RefreshBatches: 1,
		RefreshGrowth:  0.01,
		Dial:           pn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	negotiated := 0
	for _, p := range res.Peers {
		if p.Summary != "" {
			negotiated++
		}
	}
	if negotiated == 0 {
		t.Fatalf("no session negotiated a summary mid-transfer: %+v", res.Peers)
	}
}

func TestDuplicateAddressSurfacesInStats(t *testing.T) {
	info, data := testContent(t, 80, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	pn := newPipeNet()
	addr := pn.add("full", front(srv))
	res, err := Fetch([]string{addr, addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 5 * time.Second, Dial: pn.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	if len(res.Peers) != 2 {
		t.Fatalf("want 2 stats entries (one failed duplicate), got %d", len(res.Peers))
	}
	var dupErr error
	for _, p := range res.Peers {
		if p.Err != nil {
			dupErr = p.Err
		}
	}
	if dupErr == nil {
		t.Fatal("duplicate address silently dropped from stats")
	}
}
