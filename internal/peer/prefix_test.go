package peer

// prefix_test.go pins a full sender's cached stream prefix: a receiver
// that opens holding nothing, announcing the listen address the prefix
// was first sent to (or none, as its first receiver did), is replayed it
// from memory, and nothing else is — not a receiver announcing another
// address, which a relay holding the prefix could serve, not one served
// while the prefix is being extended, not one that holds symbols (a
// redial, a fetch with a working set). The prefix closes once it holds
// what a decode takes and stays as it is; one shorter stays open and the
// next session extends it. A repeat fetch of a stream whose first fetch
// took a second round trip takes one.

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/protocol"
)

// prefixServer is a full sender behind its own mux, counting into reg,
// whose content counts as fetched once (prefix.asked): its next empty
// receiver's session is the first to cache.
type prefixServer struct {
	srv  *Server
	mux  *ServerMux
	reg  *obs.Registry
	data []byte
}

func newPrefixServer(t *testing.T, k int) *prefixServer {
	t.Helper()
	info, data := testContent(t, k, 64)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.asked.Store(true) // as if fetched once: the next empty session caches
	p := &prefixServer{srv: srv, mux: front(srv), reg: obs.NewRegistry(), data: data}
	p.mux.SetObs(p.reg)
	return p
}

// encoded is serve.symbols_encoded.
func (p *prefixServer) encoded() int64 { return p.reg.Counter("serve.symbols_encoded").Value() }

// session opens a hand-driven session whose OPEN says the receiver holds
// symbols symbols and announces no listen address, asks for n of them,
// and hangs up; it returns them once the server has ended the session and
// released the prefix, if it extended it.
func (p *prefixServer) session(t *testing.T, symbols uint64, n int) []idSym {
	t.Helper()
	return p.sessionAs(t, protocol.Hello{ContentID: p.srv.Info().ID, Symbols: symbols}, n)
}

// sessionAs is session with the given OPEN.
func (p *prefixServer) sessionAs(t *testing.T, hello protocol.Hello, n int) []idSym {
	t.Helper()
	ch := p.open(t, hello)
	got := requestBatch(t, ch, n)
	if len(got) != n {
		t.Fatalf("asked for %d symbols, got %d", n, len(got))
	}
	ch.Close()
	p.released(t)
	return got
}

// open opens a hand-driven session on p with the given OPEN, whose reads
// give up after ten seconds.
func (p *prefixServer) open(t *testing.T, hello protocol.Hello) *peermux.Channel {
	t.Helper()
	ch := openHelloOn(t, p.mux, hello, "sender")
	ch.SetDeadline(time.Now().Add(10 * time.Second))
	return ch
}

// released waits until no session is extending the prefix.
func (p *prefixServer) released(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.srv.cache.writing.Load() {
		if time.Now().After(deadline) {
			t.Fatal("a session still extends the prefix")
		}
		time.Sleep(time.Millisecond)
	}
}

// cached is the prefix as it stands, ids and payload copies; call it while
// no session extends it.
func (p *prefixServer) cached() []idSym {
	c := &p.srv.cache
	out := make([]idSym, len(c.ids))
	for i, id := range c.ids {
		out[i] = idSym{id, bytes.Clone(c.payloads[i])}
	}
	return out
}

// sameSymbols fails the test unless got and want are the same symbols in
// the same order.
func sameSymbols(t *testing.T, what string, got, want []idSym) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d symbols, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].id != want[i].id || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: symbol %d is %#x, want %#x", what, i, got[i].id, want[i].id)
		}
	}
}

// disjoint fails the test if a and b share an id.
func disjoint(t *testing.T, what string, a, b []idSym) {
	t.Helper()
	seen := make(map[uint64]bool, len(a))
	for _, s := range a {
		seen[s.id] = true
	}
	for _, s := range b {
		if seen[s.id] {
			t.Fatalf("%s: id %#x sent to both", what, s.id)
		}
	}
}

// TestPrefixFirstFetchCachesNothing: a content's first empty receiver is
// sent a fresh stream and nothing is cached, so a sender whose contents
// are each fetched once copies nothing; the second is the first cached,
// and the third is replayed it.
func TestPrefixFirstFetchCachesNothing(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	p.srv.cache.asked.Store(false)
	first := p.session(t, 0, 400)
	if c := &p.srv.cache; len(c.ids) != 0 || c.closed.Load() {
		t.Fatalf("the first fetch cached %d symbols", len(c.ids))
	}
	second := p.session(t, 0, 400)
	disjoint(t, "the first and second receivers", first, second)
	sameSymbols(t, "the third receiver", p.session(t, 0, 400), second)
	if enc := p.encoded(); enc != 800 {
		t.Fatalf("serve.symbols_encoded = %d, want 800: two streams of 400", enc)
	}
}

// TestPrefixReplayedToEmptyReceiver: a second empty receiver, after the
// first has finished, gets the first's symbols in order from memory —
// serve.symbols_encoded does not move for them — and a fresh stream of its
// own past them. The closed prefix finds its decode point when an OPEN's
// round is first sized by it.
func TestPrefixReplayedToEmptyReceiver(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	first := p.session(t, 0, 400)
	if enc := p.encoded(); enc != 400 {
		t.Fatalf("first session encoded %d symbols, want 400", enc)
	}
	sameSymbols(t, "prefix", p.cached(), first)
	if !p.srv.cache.closed.Load() {
		t.Fatal("a prefix of 400 symbols, past decodeNeed(256), is still open")
	}

	second := p.session(t, 0, 450)
	sameSymbols(t, "second receiver's first 400", second[:400], first)
	if enc := p.encoded(); enc != 450 {
		t.Fatalf("serve.symbols_encoded = %d after the repeat, want 400 + the 50 past the prefix", enc)
	}
	disjoint(t, "past the prefix", first, second[400:])
	if sent := p.reg.Counter("serve.symbols_sent").Value(); sent != 850 {
		t.Fatalf("serve.symbols_sent = %d, want 850", sent)
	}

	// A round the OPEN asks for is answered up to the decode point, not
	// with the whole prefix: the rest would only be wire.
	ch := p.open(t, protocol.Hello{ContentID: p.srv.Info().ID, Batch: 16, Depth: 100})
	if got, want := p.srv.cache.decoded, min(decodeAt(t, p.srv, first), len(first)); got != want {
		t.Fatalf("the closed prefix decodes at %d, want %d", got, want)
	}
	batches := (max(decodeNeed(k), p.srv.cache.decoded) + 15) / 16
	if got := int(ch.RemoteHello().Depth); got != batches || batches*16 >= len(first) {
		t.Fatalf("the ACCEPT says %d batches of 16, want %d, fewer than the %d cached", got, batches, len(first))
	}
	var round []idSym
	for range batches {
		round = append(round, readBatch(t, ch)...)
	}
	sameSymbols(t, "the OPEN's round", round, first[:batches*16])
	ch.Close()
	p.released(t)
}

// TestPrefixConcurrentReceiversDisjoint: two empty receivers served at
// once while the prefix is open get disjoint streams — one extends the
// prefix, the other encodes a fresh stream — and a third, after both, is
// replayed the one that extended it.
func TestPrefixConcurrentReceiversDisjoint(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	id := p.srv.Info().ID
	a := p.open(t, protocol.Hello{ContentID: id})
	b := p.open(t, protocol.Hello{ContentID: id})
	var gotA, gotB []idSym
	for range 5 {
		gotA = append(gotA, requestBatch(t, a, 64)...)
		gotB = append(gotB, requestBatch(t, b, 64)...)
	}
	disjoint(t, "concurrent receivers", gotA, gotB)
	a.Close()
	b.Close()
	p.released(t)
	if enc := p.encoded(); enc != 640 {
		t.Fatalf("serve.symbols_encoded = %d, want 640", enc)
	}
	third := p.session(t, 0, 320)
	sameID := func(x, y idSym) bool { return x.id == y.id }
	if !slices.EqualFunc(third, gotA, sameID) && !slices.EqualFunc(third, gotB, sameID) {
		t.Fatal("the third receiver was not replayed either stream")
	}
	if enc := p.encoded(); enc != 640 {
		t.Fatalf("serve.symbols_encoded = %d after the replay, want 640", enc)
	}
}

// TestPrefixReplayedOnlyWhereItWent: a prefix first sent to a receiver
// that announced a listen address is replayed to that address alone; an
// empty receiver announcing another address, or none, gets a fresh stream
// of its own. A prefix first sent to a receiver that announced none is
// replayed to any number of such receivers at once — serve.symbols_encoded
// does not move — and to no receiver that announces one.
func TestPrefixReplayedOnlyWhereItWent(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	as := func(addr string) protocol.Hello {
		return protocol.Hello{ContentID: p.srv.Info().ID, ListenAddr: addr}
	}
	first := p.sessionAs(t, as("relay:1"), 400)
	for _, addr := range []string{"other:1", ""} {
		disjoint(t, fmt.Sprintf("a receiver announcing %q", addr), first, p.sessionAs(t, as(addr), 400))
	}
	if enc := p.encoded(); enc != 1200 {
		t.Fatalf("serve.symbols_encoded = %d, want 1200: three streams of 400", enc)
	}
	sameSymbols(t, "the first receiver, back again", p.sessionAs(t, as("relay:1"), 400), first)
	if enc := p.encoded(); enc != 1200 {
		t.Fatalf("serve.symbols_encoded = %d after the replay, want 1200", enc)
	}

	q := newPrefixServer(t, k)
	firstQ := q.session(t, 0, 400)
	a := q.open(t, as(""))
	b := q.open(t, as(""))
	sameSymbols(t, "one of two receivers at once", requestBatch(t, a, 400), firstQ)
	sameSymbols(t, "the other", requestBatch(t, b, 400), firstQ)
	a.Close()
	b.Close()
	if enc := q.encoded(); enc != 400 {
		t.Fatalf("serve.symbols_encoded = %d after two replays at once, want 400", enc)
	}
	disjoint(t, "a receiver announcing an address", firstQ, q.sessionAs(t, as("node:1"), 400))
}

// TestPrefixSwarmReceiverGetsNoRelayedIDs: a seed, a relay that fetched
// the content from it first — so the prefix is its stream — and serves
// its working set on, and a fresh receiver that fetches from both. The
// seed sends the fresh receiver a stream of its own, not the prefix the
// relay holds, so no symbol reaches the fresh receiver twice: replayed the
// prefix, it would have been sent the relay's first batch, aimed by no
// summary, a second time.
func TestPrefixSwarmReceiverGetsNoRelayedIDs(t *testing.T) {
	defer checkGoroutines(t)()
	const k = 512
	p := newPrefixServer(t, k)
	id := p.srv.Info().ID
	pn := newPipeNet()
	defer pn.close()
	pn.add("seed", p.mux)
	fetch := func(self string, addrs ...string) *FetchResult {
		t.Helper()
		res, err := Fetch(addrs, id, FetchOptions{
			Dial: pn.dial, DisableGossip: true, AdvertiseAddr: self, Batch: 32, Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, p.data) {
			t.Fatal("content mismatch")
		}
		return res
	}
	held := fetch("relay", "seed").Held
	p.released(t)
	if c := &p.srv.cache; !c.closed.Load() || c.owner != "relay" {
		t.Fatalf("after the relay's fetch: closed %v, owner %q", c.closed.Load(), c.owner)
	}
	relay, err := NewPartialServer(p.srv.Info(), held)
	if err != nil {
		t.Fatal(err)
	}
	pn.add("relay", front(relay))

	sent := p.reg.Counter("serve.symbols_sent")
	sentBefore, encBefore := sent.Value(), p.encoded()
	res := fetch("fresh", "seed", "relay")
	var received, useful int
	for _, ps := range res.Peers {
		t.Logf("%s: %d received, %d useful", ps.Addr, ps.SymbolsReceived, ps.UsefulSymbols)
		received += ps.SymbolsReceived
		useful += ps.UsefulSymbols
	}
	if fromSeed, encoded := sent.Value()-sentBefore, p.encoded()-encBefore; fromSeed != encoded {
		t.Fatalf("the seed sent the fresh receiver %d symbols but encoded %d: it replayed the prefix", fromSeed, encoded)
	}
	if received != useful {
		t.Fatalf("the fresh receiver got %d duplicates of %d symbols", received-useful, received)
	}
}

// TestPrefixNeverServedToHolder: a receiver whose OPEN says it holds
// symbols is never sent a cached id — a hand-driven OPEN, a receiver that
// redials mid-fetch, and a fetch that starts from a working set
// (FetchOptions.Initial) — so a receiver is never sent a symbol again.
func TestPrefixNeverServedToHolder(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	p.session(t, 0, 400) // closes the prefix
	cached := p.cached()

	held := p.session(t, 1, 400)
	disjoint(t, "OPEN saying Symbols=1", cached, held)

	inPrefix := make(map[uint64]int, len(cached))
	for pos, s := range cached {
		inPrefix[s.id] = pos
	}
	// countCached is how many of a fetch's held ids are cached ones, and
	// fails the test unless they are the prefix's first ones.
	countCached := func(what string, res *FetchResult) int {
		t.Helper()
		var at []int
		for id := range res.Held {
			if pos, ok := inPrefix[id]; ok {
				at = append(at, pos)
			}
		}
		slices.Sort(at)
		for i, pos := range at {
			if pos != i {
				t.Fatalf("%s holds cached position %d but not %d", what, pos, i)
			}
		}
		return len(at)
	}

	// The first connection leases the prefix and dies after about 20
	// symbols; the redial says what it holds and gets a fresh stream.
	pn := newPipeNet()
	defer pn.close()
	addr := pn.add("full", p.mux)
	pn.wrapNth(addr, 1, func(c net.Conn) net.Conn {
		return &cutConn{Conn: c, left: 20 * (64 + 32)}
	})
	res, err := Fetch([]string{addr}, p.srv.Info().ID, FetchOptions{
		Batch:            16,
		Timeout:          5 * time.Second,
		MaxReconnects:    3,
		ReconnectBackoff: 5 * time.Millisecond,
		Dial:             pn.dial,
		DisableGossip:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peers[0].Reconnects < 1 {
		t.Fatalf("no redial: %+v", res.Peers[0])
	}
	if n := countCached("the redialed fetch", res); n == 0 || n > 32 {
		t.Fatalf("the redialed fetch holds %d cached symbols, want the few its first connection got", n)
	}
	p.released(t)

	// A fetch with a working set never leases the prefix.
	res, err = Fetch([]string{addr}, p.srv.Info().ID, FetchOptions{
		Timeout:       5 * time.Second,
		Dial:          pn.dial,
		DisableGossip: true,
		Initial:       symbolMap(orderedSymbols(t, p.srv.Info(), p.data, 50, 99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, p.data) {
		t.Fatal("content mismatch")
	}
	if n := countCached("the fetch from a working set", res); n != 0 {
		t.Fatalf("the fetch from a working set was sent %d cached symbols", n)
	}
}

// TestPrefixFreezesAndExtends: a first session that quits before
// decodeNeed(k) leaves the prefix open, and the next session replays it
// and extends the same stream; once it holds decodeNeed(k) it closes, and
// a third session leaves it as it is, continuing on a fresh stream. No
// lessee appends past 2k.
func TestPrefixFreezesAndExtends(t *testing.T) {
	const k = 256 // decodeNeed(256) = 320
	p := newPrefixServer(t, k)
	first := p.session(t, 0, 100)
	if c := &p.srv.cache; c.closed.Load() || len(c.ids) != 100 {
		t.Fatalf("after 100 symbols: closed %v, %d cached; want open with 100", c.closed.Load(), len(c.ids))
	}
	second := p.session(t, 0, 400)
	sameSymbols(t, "the open prefix, replayed", second[:100], first)
	sameSymbols(t, "the extended prefix", p.cached(), second)
	if c := &p.srv.cache; !c.closed.Load() {
		t.Fatalf("%d cached symbols and still open", len(c.ids))
	}
	if enc := p.encoded(); enc != 400 {
		t.Fatalf("serve.symbols_encoded = %d, want 400: the second session encodes only past the first's 100", enc)
	}
	third := p.session(t, 0, 500)
	sameSymbols(t, "the closed prefix, replayed", third[:400], second)
	if n := len(p.srv.cache.ids); n != 400 {
		t.Fatalf("a third session moved the closed prefix to %d symbols", n)
	}
	disjoint(t, "past the closed prefix", second, third[400:])
	if enc := p.encoded(); enc != 500 {
		t.Fatalf("serve.symbols_encoded = %d, want 500", enc)
	}
	// The limit: a first lessee appends no more than 2k.
	q := newPrefixServer(t, k)
	q.session(t, 0, 3*k)
	if n := len(q.srv.cache.ids); n != 2*k {
		t.Fatalf("a %d-symbol session cached %d, want the limit %d", 3*k, n, 2*k)
	}
}

// TestPrefixPayloadsUnchanged: many sessions later, some at once and some
// past the prefix's end, every cached payload is still the encoding of its
// id, byte for byte as it was when the prefix closed.
func TestPrefixPayloadsUnchanged(t *testing.T) {
	const k = 256
	p := newPrefixServer(t, k)
	p.session(t, 0, 2*k)
	before := p.cached()
	id := p.srv.Info().ID
	for i := range 8 {
		a := p.open(t, protocol.Hello{ContentID: id})
		b := p.open(t, protocol.Hello{ContentID: id, Symbols: uint64(i)})
		requestBatch(t, a, 600)
		requestBatch(t, b, 100)
		a.Close()
		b.Close()
		p.released(t)
	}
	after := p.cached()
	sameSymbols(t, "the prefix after 16 sessions", after, before)
	blocks, _, err := fountain.SplitIntoBlocks(p.data, p.srv.Info().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := fountain.NewEncoder(p.srv.code, blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pos, s := range after {
		if want := enc.EncodeID(s.id); !bytes.Equal(s.data, want.Data) {
			t.Fatalf("cached payload %d (id %#x) is not its encoding", pos, s.id)
		}
	}
}

// TestPrefixRepeatFetchOneRoundTrip: over a 50 ms RTT link, a content whose
// first fetch needed a second round trip — its stream decodes only past
// the 1152 symbols, decodeNeed(1024), of the OPEN's round — is fetched
// again in one: the repeat is answered the prefix up to its decode point
// behind its ACCEPT.
// Sized by decodeNeed alone, that round would leave the repeat the same
// second round trip.
// The first fetch runs over an in-process pipe; whether its stream needed
// more than the round is read by decoding the prefix, which is that stream
// in the order it was sent. The RTT is stretched by the CPU a fetch costs,
// as in TestWANFetchRoundTrips, but never below 50 ms, and the first of
// three attempts to come in under one and a half round trips passes.
func TestPrefixRepeatFetchOneRoundTrip(t *testing.T) {
	defer checkGoroutines(t)()
	const k, round = 1024, 1152
	var p *prefixServer
	for id := uint64(1); p == nil; id++ {
		if id > 40 {
			t.Fatal("no stream in 40 needed more than the OPEN's round")
		}
		info, data := testContentID(t, id, k, 64)
		srv, err := NewFullServer(info, data)
		if err != nil {
			t.Fatal(err)
		}
		srv.cache.asked.Store(true)
		q := &prefixServer{srv: srv, mux: front(srv), reg: obs.NewRegistry(), data: data}
		pn := newPipeNet()
		addr := pn.add("full", q.mux)
		_, err = Fetch([]string{addr}, info.ID, FetchOptions{Dial: pn.dial, DisableGossip: true, Timeout: 10 * time.Second})
		pn.close()
		if err != nil {
			t.Fatal(err)
		}
		q.released(t)
		if need := decodeAt(t, srv, q.cached()); need > round {
			t.Logf("content %d: its stream decodes at %d symbols", id, need)
			p = q
		}
	}
	fetch := func(dial func(string) (net.Conn, error)) time.Duration {
		start := time.Now()
		res, err := Fetch([]string{"provider"}, p.srv.Info().ID, FetchOptions{Dial: dial, DisableGossip: true, Timeout: 10 * time.Second})
		whole := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, p.data) {
			t.Fatal("content mismatch")
		}
		return whole
	}
	rtt, cpu := wanRTT(t, p.srv, fetch)
	rtt = max(rtt, 50*time.Millisecond)
	dial, cleanup := wanPair(t, rtt, p.srv)
	defer cleanup()
	var whole time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		whole = fetch(dial)
		t.Logf("rtt %v (cpu %v): repeat fetch %.2f RTT", rtt, cpu, float64(whole)/float64(rtt))
		if whole <= rtt*3/2 {
			return
		}
	}
	t.Fatalf("repeat fetch took %.2f RTT, want one round trip", float64(whole)/float64(rtt))
}

// decodeAt is how many symbols of syms, in order, a decode of srv's
// content takes.
func decodeAt(t *testing.T, srv *Server, syms []idSym) int {
	t.Helper()
	dec, err := fountain.NewDecoder(srv.code, srv.Info().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range syms {
		if _, err := dec.AddSymbol(fountain.Symbol{ID: s.id, Data: bytes.Clone(s.data)}); err != nil {
			t.Fatal(err)
		}
		if dec.Done() {
			return i + 1
		}
	}
	return len(syms) + 1
}
