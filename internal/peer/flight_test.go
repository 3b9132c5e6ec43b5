package peer

// flight_test.go pins what the one-flight session setup and the
// need-bounded request depth are for, at the session level: how many
// round trips a latency-bound fetch costs, that every way a peer can
// turn the first flight down still ends in its own terminal error with
// nobody charged, that every sender runs at the depth one measured round
// trip holds under the window's cap, that a fetch never asks for more
// than its decode still needs however many senders it asks, and who
// answers the first round of requests the OPEN carries — a full sender,
// behind its ACCEPT and clamped to the need; a partial one never, before
// the session's summary and REQUEST.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"icd/internal/bloom"
	"icd/internal/faultnet"
	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/protocol"
)

// wanPair serves srv at "provider" on a delivery-mode ShapedNet whose
// two endpoints add up to the given round-trip time, and returns the
// client's dialer. cleanup closes the mux.
func wanPair(t testing.TB, rtt time.Duration, srv *Server) (dial func(string) (net.Conn, error), cleanup func()) {
	t.Helper()
	sn := faultnet.NewShapedNet(1)
	sn.SetDeliveryLatency(true)
	sn.SetDefaultClass(faultnet.LinkClass{Name: "wan", Latency: rtt / 4})
	ln, err := sn.Listen("provider")
	if err != nil {
		t.Fatal(err)
	}
	mux := front(srv)
	served := make(chan error, 1)
	go func() { served <- mux.Serve(ln) }()
	return sn.Node("client").Dial, func() {
		mux.Close()
		<-served
	}
}

// TestWANFetchRoundTrips counts a fetch in round trips where round trips
// are all it costs: k=1024 from a full sender, empty receiver. One
// round trip brings the session up and carries what the decode needs:
// MUX_HELLO and OPEN (asking for a whole 4096-frame window) out;
// MUX_HELLO, ACCEPT and the answer back, which the sender clamps
// to decodeNeed(1024) = 1152 symbols. A stream that needs more than that
// takes a second round trip for the rest. That is 1 and a fraction on
// average, where three 512-frame windows took 3, a first REQUEST that
// waited for the ACCEPT 4, and taking turns on both handshakes and
// ramping from depth 1 7.5; the content metadata and the first symbol
// are known after the first.
//
// The RTT is 20 ms unless this host needs more than a quarter of that
// in CPU to push the symbols through both ends (the race detector
// multiplies it tenfold): the cost is measured first (wanRTT), and the
// RTT stretched to four times it, so the half round trip of slack is
// never spent on arithmetic. The first of three attempts to come in
// under the bound passes; a fifth round trip is paid by every attempt.
func TestWANFetchRoundTrips(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 1024, 64)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	// Every fetch shares one registry: each session that comes up is one
	// observation in the one peer.handshake_seconds histogram, and one in
	// peer.first_symbol_seconds once it has folded a symbol.
	reg := obs.NewRegistry()
	first := reg.Histogram("peer.first_symbol_seconds", nil)
	fetches := 0
	// fetch returns how long the whole fetch and its WaitInfo took.
	fetch := func(dial func(string) (net.Conn, error)) (whole, meta time.Duration) {
		fetches++
		o := NewOrchestrator(info.ID, FetchOptions{Dial: dial, DisableGossip: true, Timeout: 10 * time.Second, Obs: reg})
		infoAt := make(chan time.Duration, 1)
		start := time.Now()
		go func() {
			o.WaitInfo(context.Background())
			infoAt <- time.Since(start)
		}()
		res, err := o.Run(context.Background(), "provider")
		whole = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("content mismatch")
		}
		return whole, <-infoAt
	}

	rtt, cpu := wanRTT(t, srv, func(dial func(string) (net.Conn, error)) time.Duration {
		whole, _ := fetch(dial)
		return whole
	})
	dial, cleanup := wanPair(t, rtt, srv)
	defer cleanup()

	var whole, meta, sym time.Duration
	within := func() bool { return whole <= rtt*5/2 && meta <= rtt*3/2 && sym <= rtt*3/2 }
	for attempt := 0; attempt < 3; attempt++ {
		before := first.Sum()
		whole, meta = fetch(dial)
		sym = time.Duration((first.Sum() - before) * float64(time.Second))
		t.Logf("rtt %v (cpu %v): fetch %.2f RTT, metadata after %.2f RTT, first symbol after %.2f RTT",
			rtt, cpu, float64(whole)/float64(rtt), float64(meta)/float64(rtt), float64(sym)/float64(rtt))
		if within() {
			break
		}
	}
	if !within() {
		t.Errorf("fetch took %.2f RTT (want <= 2.5), WaitInfo %.2f RTT (want <= 1.5), first symbol %.2f RTT (want <= 1.5)",
			float64(whole)/float64(rtt), float64(meta)/float64(rtt), float64(sym)/float64(rtt))
	}
	// The node records the same turn itself: one handshake per fetch, the
	// slow ones a round trip long, and recording one allocates nothing.
	h := reg.Histogram("peer.handshake_seconds", nil)
	if got := h.Count(); got != uint64(fetches) {
		t.Errorf("peer.handshake_seconds holds %d observations after %d single-session fetches", got, fetches)
	}
	if slow := fetches - 2; h.Sum() < float64(slow)*rtt.Seconds() {
		t.Errorf("peer.handshake_seconds sums to %.3fs, want >= %d round trips of %v", h.Sum(), slow, rtt)
	}
	if avg := testing.AllocsPerRun(100, func() { h.Observe(rtt.Seconds()) }); avg != 0 {
		t.Errorf("recording a handshake allocates %.1f per call, want 0", avg)
	}
	// And the first symbol: one observation per connection attempt.
	if got := first.Count(); got != uint64(fetches) {
		t.Errorf("peer.first_symbol_seconds holds %d observations after %d single-session fetches", got, fetches)
	}
	if avg := testing.AllocsPerRun(100, func() { first.Observe(rtt.Seconds()) }); avg != 0 {
		t.Errorf("recording a first symbol allocates %.1f per call, want 0", avg)
	}
}

// wanRTT is the round-trip time a latency-bound test of srv runs at:
// 20 ms, unless this host needs more than a quarter of that in CPU to
// push one fetch through both ends — measured by fetch on the same link
// with no latency, after a fetch that warms the pools — in which case
// four times that CPU cost.
func wanRTT(t *testing.T, srv *Server, fetch func(dial func(string) (net.Conn, error)) time.Duration) (rtt, cpu time.Duration) {
	t.Helper()
	dial, cleanup := wanPair(t, 0, srv)
	defer cleanup()
	fetch(dial)
	cpu = fetch(dial)
	return max(20*time.Millisecond, 4*cpu), cpu
}

// TestPartialSenderWANRoundTrips counts a fetch from a partial sender in
// round trips: k=1024, the sender holding 2048 symbols, the receiver 256
// of them. The OPEN carries the receiver's summary, so the sender answers
// one batch of the OPEN's round behind its ACCEPT, a round trip after the
// open; that batch — answered in a burst a round trip after it was asked
// for — says the path holds a window of batches, so the session asks for
// the rest of the need at once and it arrives in the second. A stream
// that needs more takes one more. When the summary was a frame of its
// own, which the sender waited for before it answered a REQUEST, a fetch
// took 4.2–4.3; ramping from depth 1, one more batch per useful batch,
// 5.2–6.4. The RTT is stretched by the CPU the fetch costs, as in
// TestWANFetchRoundTrips, and the first of three attempts to come in
// under 3.75 round trips passes.
func TestPartialSenderWANRoundTrips(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 1024, 64)
	syms := orderedSymbols(t, info, data, 2048, 5)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(dial func(string) (net.Conn, error)) time.Duration {
		start := time.Now()
		res, err := Fetch([]string{"provider"}, info.ID, FetchOptions{
			Dial: dial, DisableGossip: true, Timeout: 10 * time.Second,
			Initial: symbolMap(syms[:256]),
		})
		whole := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatal("content mismatch")
		}
		return whole
	}
	rtt, cpu := wanRTT(t, srv, fetch)
	dial, cleanup := wanPair(t, rtt, srv)
	defer cleanup()
	var whole time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		whole = fetch(dial)
		t.Logf("rtt %v (cpu %v): fetch %.2f RTT", rtt, cpu, float64(whole)/float64(rtt))
		if whole <= rtt*15/4 {
			return
		}
	}
	t.Errorf("fetch from a partial sender took %.2f RTT, want <= 3.75", float64(whole)/float64(rtt))
}

// TestFirstFlightRejects: the dialer's MUX_HELLO and OPEN are on the wire
// before it can know the peer will turn it down. Each way of being
// turned down must still end the session in its own error — terminal
// ones after a single dial — with neither side's penalty box charged
// beyond what the verdict itself books, and nothing left running. An
// answer from a live peer books nothing, a saturated peer's busy
// included: only an address that never answers is charged, one
// PenaltyDialFail per dial, until MaxReconnects or the ban ends the loop.
func TestFirstFlightRejects(t *testing.T) {
	info, data := testContentID(t, 0xA, 60, 32)
	holdOnlySlot := func(mux *ServerMux, _, _ *PenaltyBox) func() {
		mux.SetMaxConns(1)
		held, srvEnd := net.Pipe()
		done := make(chan struct{})
		go func() { defer close(done); mux.ServeConn(srvEnd) }()
		awaitActive(t, &mux.active)
		return func() { held.Close(); srvEnd.Close(); <-done }
	}
	errHas := func(sub string) func(error) bool {
		return func(err error) bool { return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub)) }
	}
	isBusy, noListener := errHas("busy (inbound connection limit reached)"), errHas("no listener")
	cases := []struct {
		name string
		// setup prepares the serving mux and either end's penalty box
		// (the client's is the shared box the fetch charges).
		setup func(mux *ServerMux, serverBox, clientBox *PenaltyBox) (release func())
		dead  bool // the address never listens
		fetch uint64
		// retries is MaxReconnects (0 = 3); dials how many of 1+retries
		// the session may spend, failed how many of those it books as
		// dial failures; score what the client's box holds against the
		// address afterwards, banned the verdict it reports.
		retries int
		check   func(err error) bool
		dials   int
		failed  int
		score   float64
		banned  bool
	}{
		{
			name:  "unknown content",
			fetch: 0xDEAD,
			check: func(err error) bool { return errors.Is(err, ErrUnknownContent) },
			dials: 1,
		},
		{
			name: "pending content",
			setup: func(mux *ServerMux, _, _ *PenaltyBox) func() {
				mux.SetPending(0xBEEF, true)
				return nil
			},
			fetch: 0xBEEF,
			// Retryable: the generic reason, every redial spent, no charge.
			check: func(err error) bool { return !errors.Is(err, ErrUnknownContent) && errHas("pending")(err) },
			dials: 4,
		},
		{
			name: "banned dialer",
			setup: func(_ *ServerMux, serverBox, _ *PenaltyBox) func() {
				serverBox.Penalize("pipe", 2*DefaultBanScore) // every pipeNet dial comes from "pipe"
				return nil
			},
			fetch: info.ID,
			check: func(err error) bool { return errors.Is(err, ErrRefused) },
			dials: 1,
		},
		{
			// Retryable like pending: the peer is alive, just full.
			name:  "busy limit",
			setup: holdOnlySlot,
			fetch: info.ID,
			check: isBusy,
			dials: 4,
		},
		{
			// More busy answers than failed dials would take to ban.
			name:    "busy past the ban score",
			setup:   holdOnlySlot,
			fetch:   info.ID,
			retries: 2 * DefaultBanScore,
			check:   isBusy,
			dials:   1 + 2*DefaultBanScore,
		},
		{
			name:   "dead address",
			dead:   true,
			fetch:  info.ID,
			check:  noListener,
			dials:  4,
			failed: 4,
			score:  4 * PenaltyDialFail,
		},
		{
			// One failure from a ban: the ban, not the budget, ends the loop.
			name: "dead address near the ban",
			dead: true,
			setup: func(_ *ServerMux, _, clientBox *PenaltyBox) func() {
				clientBox.Penalize("mux", DefaultBanScore-PenaltyDialFail)
				return nil
			},
			fetch:  info.ID,
			check:  noListener,
			dials:  1,
			failed: 1,
			score:  DefaultBanScore,
			banned: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			mux := newTestMux(t, []ContentInfo{info}, [][]byte{data})
			serverBox, clientBox := NewPenaltyBox(), NewPenaltyBox()
			// A stopped clock: scores are exact sums, nothing decays.
			installPenaltyClock(clientBox, newBrokenClock())
			mux.SetPenalties(serverBox)
			if tc.setup != nil {
				if release := tc.setup(mux, serverBox, clientBox); release != nil {
					defer release()
				}
			}
			before := serverBox.Score("pipe")
			pn := newPipeNet()
			defer pn.close()
			addr := "mux"
			if !tc.dead {
				pn.add(addr, mux)
			}
			retries := 3
			if tc.retries > 0 {
				retries = tc.retries
			}
			res, err := Fetch([]string{addr}, tc.fetch, FetchOptions{
				Timeout:             5 * time.Second,
				MaxReconnects:       retries,
				ReconnectBackoff:    time.Millisecond,
				MaxReconnectBackoff: 2 * time.Millisecond,
				Dial:                pn.dial,
				Penalties:           clientBox,
				DisableGossip:       true,
			})
			if !tc.check(err) {
				t.Fatalf("fetch error = %v", err)
			}
			if got := pn.dialCount(addr); got != tc.dials {
				t.Errorf("dialed %d times, want %d", got, tc.dials)
			}
			if st := res.Peers[0]; st.DialFailures != tc.failed || st.Banned != tc.banned || !tc.check(st.Err) {
				t.Errorf("session booked %d dial failures, banned=%v, err %v; want %d, %v", st.DialFailures, st.Banned, st.Err, tc.failed, tc.banned)
			}
			if got := clientBox.Score(addr); got != tc.score {
				t.Errorf("client charged the peer %v, want %v", got, tc.score)
			}
			if got := serverBox.Score("pipe"); got > before {
				t.Errorf("server charged the dialer: score %v -> %v", before, got)
			}
			if got := mux.Stats().Malformed; got != 0 {
				t.Errorf("server counted %d malformed frames from an honest first flight", got)
			}
		})
	}
}

// depthProbe serves content id 1 by hand, over a real accepted wire, as
// a full copy of blocks blocks, and any other content as a partial copy:
// hello as its ACCEPT, then the first round of requests its OPEN carried
// (the OPEN's hello is reported on opens; the probe answers what round
// says, and its ACCEPT says so) and every REQUEST it reads (reported on
// reqs) are answered with that many symbols and a DONE — but only once
// the test allows it (one token on serve per batch), so the number of
// batches outstanding at any moment is exactly the session's depth. A
// probe with a linger sends each batch's first symbol at once and the
// rest that much later.
type depthProbe struct {
	blocks    int
	linger    time.Duration
	code      *fountain.Code
	opens     chan protocol.Hello
	reqs      chan uint32
	serve     chan struct{}
	summaries chan summarySeen // what each SUMMARY said, while there is room
}

// summarySeen is the slice of the id space one summary named.
type summarySeen struct {
	slice, slices uint16
}

func newDepthProbe(blocks int) *depthProbe {
	code, err := fountain.NewCode(blocks, nil, 0)
	if err != nil {
		panic(err)
	}
	// opens holds the few OPENs a test's one session makes (a redial adds
	// one); reqs and serve, more REQUESTs and releases than any window has
	// batches; summaries, more than a test reads (the rest are dropped,
	// so a test that reads none never blocks the probe).
	return &depthProbe{blocks: blocks, code: code,
		opens: make(chan protocol.Hello, 8), reqs: make(chan uint32, 128), serve: make(chan struct{}, 128),
		summaries: make(chan summarySeen, 16)}
}

// round is how many batches of an OPEN's round the probe answers, as a
// real sender does: a partial one answers one; a full one what was
// asked, but no more than cover what the opener's decode still needs,
// and at least one.
func (p *depthProbe) round(open protocol.Hello) int {
	if open.Batch == 0 || open.Depth == 0 {
		return 0
	}
	if open.ContentID != 1 {
		return 1
	}
	n := int(open.Batch)
	return min(int(open.Depth), max(1, (decodeNeed(p.blocks)-int(open.Symbols)+n-1)/n))
}

func (p *depthProbe) ServeConn(conn net.Conn) error {
	fr := protocol.NewFrameReader(conn)
	f, err := fr.Next()
	if err != nil {
		return err
	}
	mh, err := protocol.DecodeMuxHello(f)
	if err != nil {
		return err
	}
	w, err := peermux.Accept(conn, fr, mh, peermux.Config{}, p.serveChannel)
	if err != nil {
		return err
	}
	return w.Serve()
}

// probeBlocks is the probe's content size unless a test needs the need
// to bind: far more than its few batches carry. No probe's content ever
// decodes, whatever its size, since it sends no symbol of degree 1; the
// payloads are never looked at.
const probeBlocks = 1 << 14

var probeBlock = make([]byte, 16)

// serveChannel claims a full copy of content id 1 and a partial one of
// anything else.
func (p *depthProbe) serveChannel(ch *peermux.Channel) {
	open := ch.RemoteHello()
	id := open.ContentID
	p.opens <- open
	round := p.round(open)
	err := ch.Accept(protocol.Hello{
		ContentID: id, FullCopy: id == 1, Symbols: uint64(p.blocks), Depth: uint16(round),
		NumBlocks: uint32(p.blocks), BlockSize: uint32(len(probeBlock)), OrigLen: uint64(len(probeBlock) * p.blocks),
		SummaryMask: protocol.AllSummaryMask,
	})
	if err != nil {
		return
	}
	pending := make(chan uint32, 128)
	gone := make(chan struct{})
	defer close(gone)
	go func() { // answers, in order, as the test releases them
		var next uint64
		for {
			var n uint32
			select {
			case n = <-pending:
			case <-gone:
				return
			}
			select {
			case <-p.serve:
			case <-gone:
				return
			}
			for i := uint32(0); i < n; i++ {
				for p.code.Degree(next) == 1 {
					next++
				}
				if protocol.WriteSymbol(ch, next, probeBlock) != nil {
					return
				}
				next++
				if i == 0 && p.linger > 0 {
					// An empty PEERS frame pushes the first symbol out
					// ahead of the rest: a channel batches SYMBOLs until
					// any other frame.
					if protocol.WriteFrame(ch, protocol.Frame{Type: protocol.TypePeers, Payload: protocol.AppendPeers(nil, nil)}) != nil {
						return
					}
					select {
					case <-time.After(p.linger):
					case <-gone:
						return
					}
				}
			}
			if protocol.WriteFrame(ch, protocol.EncodeDone()) != nil {
				return
			}
		}
	}()
	for i := 0; i < round; i++ { // the OPEN's round
		pending <- open.Batch
	}
	for {
		f, err := ch.Next()
		if err != nil {
			return
		}
		if f.Type == protocol.TypeSummary {
			if slice, slices, _, err := protocol.DecodeSummaryView(f.Payload); err == nil {
				select {
				case p.summaries <- summarySeen{slice, slices}:
				default:
				}
			}
		}
		if f.Type != protocol.TypeRequest {
			continue // summaries, gossip, the final DONE
		}
		n, err := protocol.DecodeRequest(f)
		if err != nil {
			return
		}
		pending <- n
		p.reqs <- n
	}
}

// outstanding reads REQUESTs until none arrives for a while and returns
// how many came — all of them unanswered, since the probe answers only
// on release.
func (p *depthProbe) outstanding() int {
	n := 0
	for {
		select {
		case <-p.reqs:
			n++
		case <-time.After(150 * time.Millisecond):
			return n
		}
	}
}

// release lets the probe answer n batches.
func (p *depthProbe) release(n int) {
	for i := 0; i < n; i++ {
		p.serve <- struct{}{}
	}
}

// opened returns the hello of the next OPEN the probe reads.
func (p *depthProbe) opened(t *testing.T) protocol.Hello {
	t.Helper()
	select {
	case h := <-p.opens:
		return h
	case <-time.After(5 * time.Second):
		t.Fatal("no OPEN reached the probe")
		return protocol.Hello{}
	}
}

// runProbe starts a fetch of contentID against the probes, all at once,
// and returns the orchestrator plus a stop that cancels it and waits for
// the unwind.
func runProbe(t *testing.T, contentID uint64, opts FetchOptions, probes ...*depthProbe) (*Orchestrator, func()) {
	t.Helper()
	pn := newPipeNet()
	var addrs []string
	for i, p := range probes {
		addrs = append(addrs, pn.add(fmt.Sprintf("probe%d", i), p))
	}
	opts.Dial = pn.dial
	opts.DisableGossip = true
	opts.Timeout = 10 * time.Second
	o := NewOrchestrator(contentID, opts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.Run(ctx, addrs...)
	}()
	return o, func() {
		cancel()
		<-done
		pn.close()
	}
}

// TestFullSenderDepthFollowsWindow: where the decode needs more than a
// window (k = 16384 here), a session opens at the depth its channel
// window admits — its OPEN asks for 64 batches of 64 under the default
// 4096-frame window, and no REQUEST goes out before the first of them
// is answered. That first batch, answered long after the OPEN, measures
// a round trip that holds more batches than any window here, so the
// window is the depth's cap: a live SetChannelWindow moves it both ways
// at the next batch boundary, with no second knob.
func TestFullSenderDepthFollowsWindow(t *testing.T) {
	defer checkGoroutines(t)()
	p := newDepthProbe(probeBlocks)
	o, stop := runProbe(t, 1, FetchOptions{}, p)
	defer stop()

	if h := p.opened(t); h.Batch != 64 || h.Depth != 64 {
		t.Fatalf("OPEN asked for %d batches of %d, want 64 of 64 (4096-frame window / batch 64)", h.Depth, h.Batch)
	}
	if got := p.outstanding(); got != 0 {
		t.Fatalf("%d REQUESTs sent before the OPEN's first batch was answered, want 0", got)
	}
	// Shrink to two batches' worth: as batches retire, nothing is
	// requested until fewer than two are outstanding.
	o.SetChannelWindow(128)
	p.release(62)
	if got := p.outstanding(); got != 0 {
		t.Fatalf("%d REQUESTs sent while 2..63 were outstanding under a 2-batch window", got)
	}
	p.release(1) // 1 outstanding: back up to 2
	if got := p.outstanding(); got != 1 {
		t.Fatalf("%d REQUESTs after dropping to 1 outstanding under a 2-batch window, want 1", got)
	}
	// Grow to five: the next boundary fills the pipe at once, no ramp.
	o.SetChannelWindow(320)
	p.release(1)
	if got := p.outstanding(); got != 4 {
		t.Fatalf("%d REQUESTs at the first boundary under a 5-batch window, want 4 (1 outstanding -> 5)", got)
	}
	// A window of one batch is stop-and-wait: nothing goes out until the
	// last outstanding batch retires, then exactly one REQUEST.
	o.SetChannelWindow(64)
	p.release(4)
	if got := p.outstanding(); got != 0 {
		t.Fatalf("%d REQUESTs sent with a batch outstanding under a 1-batch window", got)
	}
	p.release(1)
	if got := p.outstanding(); got != 1 {
		t.Fatalf("%d REQUESTs after the pipe drained under a 1-batch window, want 1", got)
	}
}

// TestSessionAsksWithinWindow: a session never has more symbols
// requested and not yet received than its channel's window, also when
// the window is smaller than a batch or not a multiple of one — it asks
// for the remainder in a smaller REQUEST — and it fills the window. The
// probe answers a request only on release, so what it has read and not
// answered is what the session has in flight.
func TestSessionAsksWithinWindow(t *testing.T) {
	for _, tc := range []struct {
		window int
		round  uint16 // the OPEN's round: the whole batches of 4 the window holds
	}{{6, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("window %d", tc.window), func(t *testing.T) {
			defer checkGoroutines(t)()
			p := newDepthProbe(probeBlocks)
			_, stop := runProbe(t, 1, FetchOptions{Batch: 4, ChannelWindow: tc.window}, p)
			defer stop()
			if h := p.opened(t); h.Batch != 4 || h.Depth != tc.round {
				t.Fatalf("OPEN asked for %d batches of %d, want %d of 4", h.Depth, h.Batch, tc.round)
			}
			var flight []uint32 // asked for and not yet answered, oldest first
			for range tc.round {
				flight = append(flight, 4)
			}
			for step := 0; step < 6; step++ {
				if step > 0 || tc.round > 0 {
					if len(flight) == 0 {
						t.Fatalf("step %d: nothing in flight to answer", step)
					}
					p.release(1)
					flight = flight[1:]
				}
				for more := true; more; {
					select {
					case n := <-p.reqs:
						flight = append(flight, n)
					case <-time.After(150 * time.Millisecond):
						more = false
					}
				}
				sum := 0
				for _, n := range flight {
					sum += int(n)
				}
				if sum != tc.window {
					t.Fatalf("step %d: %v in flight, %d symbols; want the window's %d", step, flight, sum, tc.window)
				}
			}
		})
	}
}

// TestRequestDepthIsMeasured: every session keeps in flight what one
// round trip holds at the rate a batch arrives, measured on a batch it
// asked for over an idle channel. A partial sender answers one batch of
// the OPEN's round, so the first flight is the OPEN alone, and that batch
// is timed from the OPEN's issue. Answered in a burst long after it was
// asked for, it says the round trip holds many batches: the next boundary
// fills the window (8 batches here). Answered at once but trickling in
// far slower than it took to ask for, it says one batch in flight already
// keeps the sender busy: the session keeps two, one arriving and one on
// its way.
func TestRequestDepthIsMeasured(t *testing.T) {
	defer checkGoroutines(t)()
	t.Run("round trip past service", func(t *testing.T) {
		p := newDepthProbe(probeBlocks)
		_, stop := runProbe(t, 2, FetchOptions{ChannelWindow: 8 * 64}, p)
		defer stop()
		if h := p.opened(t); h.Depth == 0 {
			t.Fatal("the OPEN asked for no round")
		}
		if got := p.outstanding(); got != 0 {
			t.Fatalf("%d REQUESTs to a partial sender before its one batch of the OPEN's round was answered, want 0", got)
		}
		p.release(1)
		if got := p.outstanding(); got != 8 {
			t.Fatalf("after a batch answered a round trip late: %d new REQUESTs, want the window's 8", got)
		}
	})
	t.Run("service past round trip", func(t *testing.T) {
		p := newDepthProbe(probeBlocks)
		p.linger = 60 * time.Millisecond
		o, stop := runProbe(t, 2, FetchOptions{ChannelWindow: 8 * 64}, p)
		defer stop()
		// The first two batches are answered as soon as they are asked
		// for: the OPEN's round, and the first REQUEST at the boundary it
		// retires at, the channel idle again — but only once the session
		// has built its decoder (WaitInfo). A first symbol written while it
		// still builds one (tens of milliseconds for this k under the race
		// detector) waits in the channel's queue, and the session, reading
		// it late, would time a service far shorter than the linger.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := o.WaitInfo(ctx); err != nil {
			t.Fatal(err)
		}
		p.release(2)
		// The OPEN's round, then REQUESTs to fill each of the next two
		// boundaries' idle slots: 2 (inflight 0 -> 2), then 1 (1 -> 2).
		if got := p.outstanding(); got != 3 {
			t.Fatalf("%d REQUESTs over two lingering batches, want 3 (depth 2)", got)
		}
		p.release(1)
		if got := p.outstanding(); got != 1 {
			t.Fatalf("%d REQUESTs after one of two outstanding batches retired, want 1 (depth 2)", got)
		}
	})
}

// TestSessionGoroutineBudget: a session is one goroutine. With the stall
// watchdog unarmed (StallTimeout 0, what every benchmark workload but
// the lab runs) an established connection adds none — the fetch's
// context unblocks the channel through context.AfterFunc, which costs a
// goroutine only when it fires — and an open is made on the session's
// own goroutine.
func TestSessionGoroutineBudget(t *testing.T) {
	defer checkGoroutines(t)()
	p := newDepthProbe(probeBlocks)
	// A one-batch window: the OPEN asks for one batch, and once it is
	// answered the session has nothing in flight and asks for the next.
	_, stop := runProbe(t, 1, FetchOptions{ChannelWindow: 64}, p)
	defer stop()
	p.opened(t)
	p.release(1)
	select {
	case <-p.reqs: // the channel is up and the session is requesting on it
	case <-time.After(5 * time.Second):
		t.Fatal("no REQUEST reached the probe")
	}
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	var session []string
	for _, g := range stacks {
		if strings.Contains(g, "peer.(*session)") {
			session = append(session, g)
		}
	}
	if len(session) != 1 {
		t.Fatalf("%d goroutines run session code for one session, want 1:\n%s",
			len(session), strings.Join(session, "\n\n"))
	}
}

// openAsking opens one hand-driven channel on srv whose OPEN asks for
// the round in ask (its Batch, Depth and the Symbols the opener holds),
// with a penalty box on each end — the serving mux's, and the one the
// dialing wire charges — and returns them with a hangUp that tears both
// ends down.
func openAsking(t *testing.T, srv *Server, ask protocol.Hello) (ch *peermux.Channel, serverBox, clientBox *PenaltyBox, hangUp func()) {
	t.Helper()
	serverBox, clientBox = NewPenaltyBox(), NewPenaltyBox()
	mux := front(srv)
	mux.SetPenalties(serverBox)
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- mux.ServeConn(server)
		server.Close()
	}()
	w, err := peermux.Dial(client, peermux.Config{
		Timeout:  5 * time.Second,
		Penalize: func(weight float64) { clientBox.Penalize("server", weight) },
	})
	if err != nil {
		t.Fatalf("fabric handshake: %v", err)
	}
	hangUp = func() { w.Close(); <-served }
	ask.ContentID, ask.SummaryMask = srv.Info().ID, protocol.AllSummaryMask
	ch, err = w.Open(ask, 5*time.Second)
	if err != nil {
		hangUp()
		t.Fatal(err)
	}
	return ch, serverBox, clientBox, hangUp
}

// quiet reports whether ch delivers nothing within a while — what a
// sender that owes nothing must look like.
func quiet(t *testing.T, ch *peermux.Channel) bool {
	t.Helper()
	ch.SetDeadline(time.Now().Add(150 * time.Millisecond))
	defer ch.SetDeadline(time.Time{})
	f, err := ch.Next()
	if err == nil {
		t.Logf("unexpected %v", f.Type)
	}
	return errors.Is(err, peermux.ErrDeadline)
}

// TestFullSenderAnswersTheOpen: a full sender answers the round the OPEN
// carried right behind its ACCEPT, exactly as it answers REQUEST frames —
// batches of the asked size, each ending in its DONE, as many as its
// ACCEPT's Depth says — with no REQUEST written and no penalty box
// charged on either end. The round is what was asked, clamped to what
// the opener's decode still needs (decodeNeed(600) = 698 symbols, less
// what it holds, rounded up to whole batches and never below one) and in
// total to one channel window, uncharged.
func TestFullSenderAnswersTheOpen(t *testing.T) {
	info, data := testContent(t, 600, 32)
	for _, tc := range []struct {
		name    string
		batch   uint32
		depth   uint16
		symbols uint64 // what the opener holds
		batches []int  // the DONE-ended batches the sender answers with
	}{
		{"within the window", 16, 4, 0, []int{16, 16, 16, 16}},
		{"one window exactly", 64, 64, 0, slices.Repeat([]int{64}, 11)},
		{"deeper than a window", 64, 1000, 0, slices.Repeat([]int{64}, 11)},
		{"batch larger than a window", 1 << 20, 3, 0, []int{peermux.DefaultWindow}},
		{"the widest ask", 1<<32 - 1, 1<<16 - 1, 0, []int{peermux.DefaultWindow}},
		{"an opener holding most of it", 16, 8, 650, []int{16, 16, 16}},
		{"an opener holding all of it", 16, 8, 5000, []int{16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			srv, err := NewFullServer(info, data)
			if err != nil {
				t.Fatal(err)
			}
			ch, serverBox, clientBox, hangUp := openAsking(t, srv, protocol.Hello{Batch: tc.batch, Depth: tc.depth, Symbols: tc.symbols})
			defer hangUp()
			if got := int(ch.RemoteHello().Depth); got != len(tc.batches) {
				t.Fatalf("ACCEPT says %d batches, want %d", got, len(tc.batches))
			}
			seen := make(map[uint64]bool)
			for i, want := range tc.batches {
				got := readBatch(t, ch)
				if len(got) != want {
					t.Fatalf("batch %d carried %d symbols, want %d", i, len(got), want)
				}
				for _, s := range got {
					if seen[s.id] {
						t.Fatalf("symbol %d sent twice", s.id)
					}
					seen[s.id] = true
				}
			}
			if !quiet(t, ch) {
				t.Fatalf("sender wrote past the %d batches of its round", len(tc.batches))
			}
			if got, want := srv.Stats().SymbolsSent, int64(len(seen)); got != want {
				t.Errorf("server counted %d symbols sent, the receiver read %d", got, want)
			}
			if serverBox.Len() != 0 || clientBox.Len() != 0 || srv.Stats().Malformed != 0 {
				t.Errorf("an honest first round charged someone: server box %d, client box %d, malformed %d",
					serverBox.Len(), clientBox.Len(), srv.Stats().Malformed)
			}
			// The session goes on as any other: a REQUEST is answered.
			if got := requestBatch(t, ch, 5); len(got) != 5 {
				t.Fatalf("REQUEST after the round answered %d symbols, want 5", len(got))
			}
		})
	}
}

// TestPartialSenderAnswersTheOpen: a partial sender answers one batch of
// the round the OPEN carried, whatever the round asked for — at the
// window's ceiling too — aimed by the summary the OPEN carried: the ids
// its filter leaves missing, those in the slice it names first. It says
// so in its ACCEPT's Depth, writes nothing more until a REQUEST, and
// charges no one. An OPEN that asks for no round gets no batch. A session
// whose fetch holds nothing, or is uninformed, opens with no summary, and
// the sender answers its batch from a cursor no summary aimed.
func TestPartialSenderAnswersTheOpen(t *testing.T) {
	info, data := testContent(t, 100, 32)
	syms := orderedSymbols(t, info, data, 120, 5)
	held := idsOf(syms[:60])
	blob, err := filterBlob(held)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := uint16(depthCap(peermux.DefaultWindow, 64))
	for _, tc := range []struct {
		name          string
		batch         uint32
		depth         uint16
		summary       bool // the OPEN carries a summary of held naming slice of slices
		slice, slices uint16
		want          uint16 // the ACCEPT's Depth
	}{
		{"no round", 16, 0, true, 0, 0, 0},
		{"no batch", 0, 8, true, 0, 0, 0},
		{"a round of one", 16, 1, true, 0, 0, 1},
		{"a deep round", 16, 8, true, 0, 0, 1},
		{"at the window's ceiling", 64, ceiling, true, 0, 0, 1},
		{"a slice first", 16, 8, true, 1, 2, 1},
		{"no summary", 16, 8, false, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			srv, err := NewPartialServer(info, symbolMap(syms))
			if err != nil {
				t.Fatal(err)
			}
			open := protocol.Hello{Batch: tc.batch, Depth: tc.depth, Symbols: uint64(len(held))}
			if tc.summary {
				open.Summary = protocol.EncodeSummary(tc.slice, tc.slices, blob).Payload
			}
			ch, serverBox, clientBox, hangUp := openAsking(t, srv, open)
			defer hangUp()
			if got := ch.RemoteHello().Depth; got != tc.want {
				t.Fatalf("partial sender's ACCEPT says %d batches, want %d", got, tc.want)
			}
			// What the sender may send, in the order it queues it: the ids
			// the filter leaves missing in the slice, then out of it.
			filter := receiverFilter(t, held)
			var inSlice, outSlice int
			for _, s := range syms {
				switch {
				case tc.summary && filter.Contains(s.id):
				case protocol.InSlice(s.id, tc.slice, tc.slices):
					inSlice++
				default:
					outSlice++
				}
			}
			left := inSlice + outSlice
			if tc.want > 0 {
				got := readBatch(t, ch)
				if want := min(int(tc.batch), left); len(got) != want {
					t.Fatalf("the OPEN's batch carried %d symbols, want %d", len(got), want)
				}
				left -= len(got)
				for i, s := range got {
					if tc.summary && filter.Contains(s.id) {
						t.Fatalf("sent %d, which the OPEN's summary holds", s.id)
					}
					if in := protocol.InSlice(s.id, tc.slice, tc.slices); in != (i < inSlice) {
						t.Fatalf("symbol %d of the batch in slice %v, want %v (%d of the missing ids are in the slice)", i, in, i < inSlice, inSlice)
					}
				}
			}
			if !quiet(t, ch) {
				t.Fatal("partial sender wrote past the OPEN's round")
			}
			if serverBox.Len() != 0 || clientBox.Len() != 0 || srv.Stats().Malformed != 0 {
				t.Errorf("charged someone: server box %d, client box %d, malformed %d",
					serverBox.Len(), clientBox.Len(), srv.Stats().Malformed)
			}
			// The session goes on as any other: a REQUEST is answered.
			if got, want := len(requestBatch(t, ch, 5)), min(5, left); got != want {
				t.Fatalf("REQUEST after the round answered %d symbols, want %d", got, want)
			}
		})
	}
	// What a fetch's session puts in its OPEN: a summary of what it holds
	// naming its slice, unless it holds nothing or is uninformed.
	for _, tc := range []struct {
		name    string
		opts    FetchOptions
		summary bool
	}{
		{"an informed receiver", FetchOptions{Initial: symbolMap(syms[:60])}, true},
		{"an empty receiver", FetchOptions{}, false},
		{"an uninformed receiver", FetchOptions{Initial: symbolMap(syms[:60]), Uninformed: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			p := newDepthProbe(probeBlocks)
			_, stop := runProbe(t, 2, tc.opts, p)
			defer stop()
			open := p.opened(t)
			if open.Batch == 0 || open.Depth == 0 {
				t.Fatalf("the OPEN asked for %d batches of %d, want a round", open.Depth, open.Batch)
			}
			if !tc.summary {
				if len(open.Summary) != 0 {
					t.Fatalf("the OPEN carried a %d-byte summary, want none", len(open.Summary))
				}
				return
			}
			slice, slices, blob, err := protocol.DecodeSummaryView(open.Summary)
			if err != nil || slice != 0 || slices != 1 {
				t.Fatalf("the OPEN's summary names slice %d of %d (%v), want 0 of 1", slice, slices, err)
			}
			filter := new(bloom.Filter)
			if err := filter.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			for _, id := range held {
				if !filter.Contains(id) {
					t.Fatalf("the OPEN's summary leaves %d missing, which the receiver holds", id)
				}
			}
		})
	}
}

// TestPartialSenderIgnoresTheOpen: a partial sender ignores the OPEN's
// round past its first batch. Asked for 8 batches of 16 by an opener that
// sent no summary, it answers one, from its unaimed cursor, and writes
// nothing more — not after the session's SUMMARY either — until a
// REQUEST, which it answers against that SUMMARY, and nothing else.
func TestPartialSenderIgnoresTheOpen(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 100, 32)
	syms := orderedSymbols(t, info, data, 120, 5)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	ch, serverBox, clientBox, hangUp := openAsking(t, srv, protocol.Hello{Batch: 16, Depth: 8})
	defer hangUp()
	if got := ch.RemoteHello().Depth; got != 1 {
		t.Fatalf("partial sender's ACCEPT says %d batches, want 1", got)
	}
	if got := readBatch(t, ch); len(got) != 16 {
		t.Fatalf("the OPEN's batch carried %d symbols, want 16", len(got))
	}
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote past the first batch of the OPEN's round")
	}
	held := idsOf(syms[:60])
	sendSummary(t, ch, held)
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote after a SUMMARY, before any REQUEST")
	}
	got := requestBatch(t, ch, 16)
	if len(got) != 16 {
		t.Fatalf("REQUEST for 16 answered %d symbols", len(got))
	}
	for _, s := range got {
		if slices.Contains(held, s.id) {
			t.Fatalf("sent %d, which the summary holds", s.id)
		}
	}
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote past the one REQUEST it was sent")
	}
	if serverBox.Len() != 0 || clientBox.Len() != 0 {
		t.Errorf("charged someone: server box %d, client box %d", serverBox.Len(), clientBox.Len())
	}
}

// TestPartialSenderWaitsForTheSummaryAtTheCeiling: the OPEN a fetch sends
// first, before any ACCEPT has told it k, asks for a whole window — 64
// batches of 64 at the 4096-frame ceiling. A partial sender answers one
// batch of it, aimed by the summary the OPEN carried, and no more: a
// batch past that one would be aimed by a summary gone stale. It waits
// for the session's next SUMMARY and a REQUEST, and answers that REQUEST
// against the new summary.
func TestPartialSenderWaitsForTheSummaryAtTheCeiling(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 100, 32)
	syms := orderedSymbols(t, info, data, 120, 5)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	held := idsOf(syms[:40])
	blob, err := filterBlob(held)
	if err != nil {
		t.Fatal(err)
	}
	ch, _, _, hangUp := openAsking(t, srv, protocol.Hello{
		Batch:   64,
		Depth:   uint16(depthCap(peermux.DefaultWindow, 64)),
		Symbols: uint64(len(held)),
		Summary: protocol.EncodeSummary(0, 0, blob).Payload,
	})
	defer hangUp()
	if got := ch.RemoteHello().Depth; got != 1 {
		t.Fatalf("partial sender's ACCEPT says %d batches, want 1", got)
	}
	got := readBatch(t, ch)
	if len(got) != 64 {
		t.Fatalf("the OPEN's batch carried %d symbols, want 64", len(got))
	}
	for _, s := range got {
		if slices.Contains(held, s.id) {
			t.Fatalf("sent %d, which the OPEN's summary holds", s.id)
		}
		held = append(held, s.id)
	}
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote past the first batch of a window-sized round")
	}
	sendSummary(t, ch, held)
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote after a SUMMARY, before any REQUEST")
	}
	got = requestBatch(t, ch, 64)
	if len(got) == 0 {
		t.Fatal("REQUEST after the SUMMARY answered nothing")
	}
	for _, s := range got {
		if slices.Contains(held, s.id) {
			t.Fatalf("sent %d, which the new summary holds", s.id)
		}
	}
}

// budget reads the fetch's request budget in use and its working set's
// length, together.
func budget(o *Orchestrator) (asked, have int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.asked, len(o.log.ids)
}

// TestFetchAskedWithinNeed: what a fetch has requested and not yet
// received never exceeds what its decode still needs — need(progress), at
// least a batch per session. One full sender of k = 256 (decodeNeed 320,
// five batches of 64): the blind first OPEN asks for a whole window, the
// sender answers five batches, and nothing more is asked while they
// arrive; past 320 symbols the session asks one batch, then rounds that
// grow with the overshoot (need = p - k). At every quiet point the
// fetch's budget equals what the probe owes and stays within the bound.
func TestFetchAskedWithinNeed(t *testing.T) {
	defer checkGoroutines(t)()
	const k, batch = 256, 64
	p := newDepthProbe(k)
	o, stop := runProbe(t, 1, FetchOptions{}, p)
	defer stop()

	open := p.opened(t)
	if want := depthCap(peermux.DefaultWindow, batch); int(open.Depth) != want {
		t.Fatalf("blind OPEN asked for %d batches, want a window's %d", open.Depth, want)
	}
	owed := p.round(open)
	if owed != 5 {
		t.Fatalf("probe answers %d batches of the OPEN's round, want 5", owed)
	}
	// The REQUESTs each batch boundary brings: none while the round
	// covers the need, one at 320 symbols (the session's own batch), then
	// 2 at 384 (need 128) and 2 more at 448 (need 192, one outstanding).
	wantReqs := []int{0, 0, 0, 0, 0, 1, 2, 2}
	for step, want := range wantReqs {
		got := p.outstanding()
		owed += got
		asked, have := budget(o)
		if got != want {
			t.Errorf("step %d: %d REQUESTs at %d symbols held, want %d", step, got, have, want)
		}
		if asked != owed*batch {
			t.Fatalf("step %d: the fetch counts %d symbols asked, the probe owes %d", step, asked, owed*batch)
		}
		if bound := max(batch, need(k, have, batch)); asked > bound {
			t.Fatalf("step %d: %d symbols asked at %d held, past the need %d", step, asked, have, bound)
		}
		p.release(1)
		owed--
	}
}

// TestTwoFullSendersOneNeed: two full senders opened at fetch start share
// one budget. Before the first ACCEPT tells the fetch k, one OPEN asks
// blind (its sender clamps the answer to the need) and the other asks for
// nothing; once k is known the budget is spent, so the second session
// asks only its own one batch. Together they are asked for at most one
// need plus one batch before any of the first round is answered.
func TestTwoFullSendersOneNeed(t *testing.T) {
	defer checkGoroutines(t)()
	const k, batch = 256, 64
	a, b := newDepthProbe(k), newDepthProbe(k)
	o, stop := runProbe(t, 1, FetchOptions{}, a, b)
	defer stop()
	batches := 0
	for _, p := range []*depthProbe{a, b} {
		batches += p.round(p.opened(t))
	}
	batches += a.outstanding() + b.outstanding()
	if got, bound := batches*batch, decodeNeed(k)+batch; got > bound {
		t.Fatalf("two full senders were asked for %d symbols before any was answered, want <= %d (one need, one batch)", got, bound)
	}
	if asked, _ := budget(o); asked != batches*batch {
		t.Fatalf("the fetch counts %d symbols asked, the probes owe %d", asked, batches*batch)
	}
}
