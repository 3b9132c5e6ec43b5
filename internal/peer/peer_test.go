package peer

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/prng"
	"icd/internal/protocol"
)

// testContent builds deterministic content and its metadata.
func testContent(t testing.TB, nBlocks, blockSize int) (ContentInfo, []byte) {
	t.Helper()
	rng := prng.New(0xC0FFEE)
	data := make([]byte, nBlocks*blockSize-blockSize/3)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	info := ContentInfo{
		ID:        0xFEED,
		NumBlocks: nBlocks,
		BlockSize: blockSize,
		OrigLen:   len(data),
		CodeSeed:  7,
	}
	return info, data
}

// startServer serves s behind a ServerMux on a random localhost port and
// returns its address.
func startServer(t testing.TB, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, ln, front(s))
}

// startGatedServers serves each of srvs as startServer does, behind one
// startGate that lets every server send one batch of symbols and holds
// its second until every one of them is about to send its second — its
// client session read the whole first batch and asked again — or its
// client is gone (its handshake was rejected). A fetch from all of them
// then has every session holding symbols before any transfer goes on,
// however fast the first ones up would finish alone and however late the
// scheduler runs the last server the gate lets go.
func startGatedServers(t testing.TB, srvs ...*Server) []string {
	t.Helper()
	return serveGated(t, &startGate{n: len(srvs), batches: 1, open: make(chan struct{})}, srvs)
}

// startHandshakeGatedServers is startGatedServers whose gate also waits
// for the fetch tracing into reg to have taken every server's ACCEPT (one
// obs.EvDial per server): the ACCEPTs pass the gate, the symbols behind
// them do not, so every session reads its peer's content parameters
// before any symbol can complete the fetch.
func startHandshakeGatedServers(t testing.TB, reg *obs.Registry, srvs ...*Server) []string {
	t.Helper()
	ready := func() bool {
		dials := 0
		for _, ev := range reg.Tracer().Events() {
			if ev.Event == obs.EvDial {
				dials++
			}
		}
		return dials >= len(srvs)
	}
	return serveGated(t, &startGate{n: len(srvs), ready: ready, open: make(chan struct{})}, srvs)
}

// serveGated serves each of srvs behind g and returns their addresses.
func serveGated(t testing.TB, g *startGate, srvs []*Server) []string {
	t.Helper()
	addrs := make([]string, len(srvs))
	for i, s := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = serveOn(t, gatedListener{ln, g}, front(s))
	}
	return addrs
}

// startGate opens once n server connections have arrived at it and, if
// ready is set, ready holds (polled, for at most 10 s). Each connection
// first writes batches symbol batches past it.
type startGate struct {
	mu      sync.Mutex
	n       int
	batches int
	ready   func() bool
	open    chan struct{}
}

func (g *startGate) arrive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n--; g.n != 0 {
		return
	}
	if g.ready == nil {
		close(g.open)
		return
	}
	go func() {
		for end := time.Now().Add(10 * time.Second); !g.ready() && time.Now().Before(end); {
			time.Sleep(100 * time.Microsecond)
		}
		close(g.open)
	}()
}

// gatedConn is a server connection behind a startGate. Once it has
// written the gate's batches of symbols, it arrives at its next MUX
// envelope write — the fabric writes whole frames or batches of them, so
// a write's first frame header, and its first envelope's inner type, name
// what it carries — or when its client hangs up, whichever comes first,
// and every envelope write from then on waits for the gate (bounded, so
// that a gate that never opens fails the fetch instead of hanging the
// server). The fabric serializes a wire's writes.
type gatedConn struct {
	net.Conn
	g       *startGate
	batches int // symbol batches written past the gate
	arrived sync.Once
}

// muxInner is the offset of a MUX envelope's inner frame type: behind
// the frame header (magic, version, type, length) and the channel id.
const muxInner = 2 + 1 + 1 + 4 + 2

func (c *gatedConn) Write(p []byte) (int, error) {
	if len(p) > muxInner && protocol.Type(p[3]) == protocol.TypeMux {
		if c.batches < c.g.batches {
			if protocol.Type(p[muxInner]) == protocol.TypeSymbol {
				c.batches++
			}
			return c.Conn.Write(p)
		}
		c.arrived.Do(c.g.arrive)
		select {
		case <-c.g.open:
		case <-time.After(10 * time.Second):
		}
	}
	return c.Conn.Write(p)
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.arrived.Do(c.g.arrive)
	}
	return n, err
}

// gatedServer serves every connection with its writes behind g, as
// gatedListener does for a listener it accepts from.
type gatedServer struct {
	connServer
	g *startGate
}

func (s gatedServer) ServeConn(c net.Conn) error {
	return s.connServer.ServeConn(&gatedConn{Conn: c, g: s.g})
}

type gatedListener struct {
	net.Listener
	g *startGate
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: l.g}, nil
}

// serveOn serves mux on ln until the test ends and
// returns ln's address.
func serveOn(t testing.TB, ln net.Listener, mux *ServerMux) string {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mux.Serve(ln)
	}()
	t.Cleanup(func() {
		mux.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// partialSymbols encodes `count` symbols of the content for a partial
// sender's working set.
func partialSymbols(t testing.TB, info ContentInfo, data []byte, count int, seed uint64) map[uint64][]byte {
	t.Helper()
	blocks, _, err := fountain.SplitIntoBlocks(data, info.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := fountain.NewEncoder(code, blocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte, count)
	for len(out) < count {
		sym := enc.Next()
		out[sym.ID] = sym.Data
	}
	return out
}

func TestFetchFromFullServerTCP(t *testing.T) {
	info, data := testContent(t, 120, 64)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	reg := observe(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, ln, mux)

	res, err := Fetch([]string{addr}, info.ID, FetchOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("not completed")
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	// The stream is the server's first, salted with its TCP address, so it
	// differs from run to run (at n=120 one stream in ten needs more than
	// 60% extra): the fetch must need exactly what a bare decoder needs on
	// that same stream, no symbol more.
	if want := firstStreamOverhead(t, srv, data, addr); res.DecodeOverhead != want {
		t.Fatalf("decode overhead %.3f, a bare decoder on the same stream %.3f", res.DecodeOverhead, want)
	}
	if got := reg.Counter("serve.connections").Value(); got != 1 {
		t.Fatalf("connections = %d", got)
	}
}

func TestFetchParallelFullServers(t *testing.T) {
	// Each server sends its first batch as soon as it is asked, and its
	// second only once all three sessions have read their first and asked
	// again — the content (57 KB) fits in one session's default window,
	// and with one-batch windows two sessions finish it in about 84 round
	// trips, a few milliseconds, so a session whose server the scheduler
	// let go a little late could otherwise get nothing. A one-batch window
	// asks for the second batch only once the first was read whole.
	info, data := testContent(t, 1200, 48)
	var srvs []*Server
	for i := 0; i < 3; i++ {
		srv, err := NewFullServer(info, data)
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	res, err := Fetch(startGatedServers(t, srvs...), info.ID, FetchOptions{Batch: 16, ChannelWindow: 16, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	// Additivity (§2.3): every peer contributed.
	contributed := 0
	for _, p := range res.Peers {
		if p.SymbolsReceived > 0 {
			contributed++
		}
	}
	if contributed != 3 {
		t.Fatalf("only %d/3 peers contributed", contributed)
	}
}

func TestFetchFromPartialSenders(t *testing.T) {
	info, data := testContent(t, 100, 32)
	// Two partial senders, each with 80% of the needed symbols from
	// different streams; jointly they cover the file.
	sy1 := partialSymbols(t, info, data, 90, 1)
	sy2 := partialSymbols(t, info, data, 90, 2)
	s1, err := NewPartialServer(info, sy1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewPartialServer(info, sy2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{startServer(t, s1), startServer(t, s2)}
	res, err := Fetch(addrs, info.ID, FetchOptions{Batch: 32, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("fetch: %v (distinct=%d)", err, res.DistinctSymbols)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	for i, p := range res.Peers {
		if p.Full {
			t.Fatalf("peer %d claims full copy", i)
		}
	}
}

func TestFetchMixedFullAndPartial(t *testing.T) {
	info, data := testContent(t, 100, 32)
	full, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartialServer(info, partialSymbols(t, info, data, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{startServer(t, full), startServer(t, part)}
	res, err := Fetch(addrs, info.ID, FetchOptions{Batch: 16, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
}

func TestStatelessMigration(t *testing.T) {
	// §2.3: stop a download partway, then resume against a *different*
	// sender passing only the held symbols — no other connection state.
	info, data := testContent(t, 120, 40)
	part, err := NewPartialServer(info, partialSymbols(t, info, data, 70, 4))
	if err != nil {
		t.Fatal(err)
	}
	addr1 := startServer(t, part)

	// Phase 1: fetch from the partial sender only; it cannot finish the
	// file (70 < ~1.07·120 needed), so the fetch ends incomplete.
	res1, err := Fetch([]string{addr1}, info.ID, FetchOptions{
		Batch: 16, Timeout: 10 * time.Second, MaxUselessBatches: 2,
	})
	if err == nil || res1 == nil {
		t.Fatalf("phase 1 should be incomplete, got err=%v", err)
	}
	if res1.Completed {
		t.Fatal("phase 1 completed?!")
	}
	if res1.DistinctSymbols == 0 {
		t.Fatal("phase 1 gained nothing")
	}

	// Phase 2: resume from a full sender with only the held symbols.
	full, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	addr2 := startServer(t, full)
	res2, err := Fetch([]string{addr2}, info.ID, FetchOptions{
		Batch: 16, Timeout: 10 * time.Second, Initial: res1.Held,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Data, data) {
		t.Fatal("content mismatch after migration")
	}
	// The resumed transfer must have needed fewer fresh symbols than a
	// cold start: phase-1 symbols counted.
	if res2.DistinctSymbols <= res1.DistinctSymbols {
		t.Fatalf("resume did not extend the working set: %d then %d",
			res1.DistinctSymbols, res2.DistinctSymbols)
	}
}

func TestBloomSuppressesDuplicates(t *testing.T) {
	// Receiver already holds most of the partial sender's symbols; the
	// Bloom filter should focus the sender on the rest.
	info, data := testContent(t, 100, 32)
	symbols := partialSymbols(t, info, data, 140, 5)
	part, err := NewPartialServer(info, symbols)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, part)

	// The receiver already holds 100 of the sender's 140 symbols — not
	// yet enough to decode n=100 blocks, but most of the way there.
	initial := make(map[uint64][]byte)
	for id, d := range symbols {
		if len(initial) == 100 {
			break
		}
		initial[id] = d
	}
	res, err := Fetch([]string{addr}, info.ID, FetchOptions{
		Batch: 16, Timeout: 10 * time.Second, Initial: initial, MaxUselessBatches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("content mismatch")
	}
	// With the filter, the sender sends only the ~40 unknown symbols;
	// completing the decode should take far fewer transmissions
	// than blindly resending a 140-symbol working set.
	if got := res.Peers[0].SymbolsReceived; got > 100 {
		t.Fatalf("received %d symbols; Bloom-informed transfer should need far fewer", got)
	}
}

func TestWrongContentIDRejected(t *testing.T) {
	info, data := testContent(t, 50, 16)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	_, err = Fetch([]string{addr}, 0xBAD, FetchOptions{Timeout: 5 * time.Second})
	if err == nil {
		t.Fatal("wrong content id accepted")
	}
}

func TestGarbageClientRejected(t *testing.T) {
	// Failure injection: a client speaking garbage must not wedge the
	// server.
	info, data := testContent(t, 50, 16)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	conn.Read(buf) // server closes or errors — either is fine
	conn.Close()

	// The server must still serve real clients afterwards.
	res, err := Fetch([]string{addr}, info.ID, FetchOptions{Timeout: 10 * time.Second})
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("server wedged after garbage client: %v", err)
	}
}

func TestServeChannelOverPipe(t *testing.T) {
	// The serving side is transport-agnostic: drive one session by hand
	// over a fabric wire on net.Pipe.
	info, data := testContent(t, 60, 24)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	w, _, served := dialMux(t, front(srv), nil)
	ch, err := w.Open(protocol.Hello{ContentID: info.ID}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if hello := ch.RemoteHello(); !hello.FullCopy || hello.NumBlocks != 60 {
		t.Fatalf("hello = %+v", hello)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeRequest(5)); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		f, err := ch.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == protocol.TypeDone {
			break
		}
		if f.Type != protocol.TypeSymbol {
			t.Fatalf("unexpected %v", f.Type)
		}
		got++
	}
	if got != 5 {
		t.Fatalf("got %d symbols, want 5", got)
	}
	protocol.WriteFrame(ch, protocol.EncodeDone())
	w.Close()
	<-served
}

// TestFullServerAdoptsContent: a full sender serves its content's own
// bytes — every whole block a view of it, clipped to its own length — and
// copies only the zero-padded tail block; what it serves still decodes to
// the content.
func TestFullServerAdoptsContent(t *testing.T) {
	info, data := testContent(t, 50, 16)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range srv.blocks {
		padded := (i+1)*info.BlockSize > len(data)
		if aliases := &b[0] == &data[i*info.BlockSize]; aliases == padded {
			t.Fatalf("block %d aliases the content = %v, padded = %v", i, aliases, padded)
		}
		if cap(b) != info.BlockSize {
			t.Fatalf("block %d has capacity %d, want %d", i, cap(b), info.BlockSize)
		}
	}
	res, err := Fetch([]string{startServer(t, srv)}, info.ID, FetchOptions{Batch: 16, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("the adopted content decodes to other bytes")
	}
}

func TestServerValidation(t *testing.T) {
	info, data := testContent(t, 50, 16)
	if _, err := NewFullServer(ContentInfo{}, data); err == nil {
		t.Error("bad info accepted")
	}
	if _, err := NewFullServer(info, data[:10]); err == nil {
		t.Error("short content accepted")
	}
	if _, err := NewPartialServer(info, nil); err == nil {
		t.Error("empty partial accepted")
	}
	if _, err := NewPartialServer(info, map[uint64][]byte{1: {1, 2}}); err == nil {
		t.Error("wrong symbol size accepted")
	}
	if _, err := Fetch(nil, 1, FetchOptions{}); err == nil {
		t.Error("no peers accepted")
	}
}

// TestPartialServerHeldOrderIsDeterministic: recoders sample the log by
// position, so two servers built from one symbol map must lay it out in
// one order — id order, whatever order the map ranges in — or the same
// seed blends different symbols on different runs.
func TestPartialServerHeldOrderIsDeterministic(t *testing.T) {
	info, data := testContent(t, 120, 64)
	symbols := partialSymbols(t, info, data, 64, 7)
	a, err := NewPartialServer(info, symbols)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPartialServer(info, symbols)
	if err != nil {
		t.Fatal(err)
	}
	aIDs, aPayloads := a.src.WorkingSet()
	bIDs, _ := b.src.WorkingSet()
	if !slices.Equal(aIDs, bIDs) {
		t.Fatal("two partial servers over one symbol map hold it in different orders")
	}
	if !slices.IsSorted(aIDs) {
		t.Fatal("held ids are not in id order")
	}
	for i, id := range aIDs {
		if !bytes.Equal(aPayloads[i], symbols[id]) {
			t.Fatalf("payload %d is not symbol %d's", i, id)
		}
	}
}

func TestFetchUnreachablePeer(t *testing.T) {
	_, err := Fetch([]string{"127.0.0.1:1"}, 1, FetchOptions{Timeout: 2 * time.Second})
	if err == nil {
		t.Fatal("unreachable peer succeeded")
	}
}
