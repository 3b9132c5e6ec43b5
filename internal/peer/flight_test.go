package peer

// flight_test.go pins what the one-flight session setup and the
// need-bounded request depth are for, at the session level: how many
// round trips a latency-bound fetch costs, that every way a peer can
// turn the first flight down still ends in its own terminal error with
// nobody charged, which senders run at the window's depth and which
// still probe their way up, that a fetch never asks for more than its
// decode still needs however many senders it asks, and who answers the
// first round of requests the OPEN carries — a full sender, behind its
// ACCEPT and clamped to the need; a partial one never, before the
// session's summary and REQUEST.

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
// MUX_HELLO, OPEN (asking for a whole 4096-frame window) and CREDIT out;
// MUX_HELLO, ACCEPT, CREDIT and the answer back, which the sender clamps
// to decodeNeed(1024) = 1152 symbols. A stream that needs more than that
// takes a second round trip for the rest. That is 1 and a fraction on
// average, where three 512-frame windows took 3, a first REQUEST that
// waited for the ACCEPT 4, and taking turns on both handshakes and
// ramping from depth 1 7.5; the content metadata and the first symbol
// are known after the first.
//
// The RTT is 20 ms unless this host needs more than a quarter of that
// in CPU to push the symbols through both ends (the race detector
// multiplies it tenfold): the cost is measured first, on the same link
// with no latency, and the RTT stretched to four times it, so the half
// round trip of slack is never spent on arithmetic. The first of three
// attempts to come in under the bound passes; a fifth round trip is
// paid by every attempt.
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

	dial, cleanup := wanPair(t, 0, srv)
	fetch(dial) // warm the pools
	cpu, _ := fetch(dial)
	cleanup()
	rtt := 20 * time.Millisecond
	if 4*cpu > rtt {
		rtt = 4 * cpu
	}
	dial, cleanup = wanPair(t, rtt, srv)
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

// TestFirstFlightRejects: the dialer's OPEN and CREDIT are on the wire
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
// a full copy of blocks blocks: hello as its ACCEPT, then the first round
// of requests its OPEN carried (the OPEN's hello is reported on opens;
// the probe answers what round says, and its ACCEPT says so) and every
// REQUEST it reads (reported on reqs) are answered with that many
// symbols and a DONE — but only once the test allows it (one token on
// serve per batch), so the number of batches outstanding at any moment
// is exactly the session's depth. Like a real partial sender, it ignores
// the OPEN's round for any other content.
type depthProbe struct {
	blocks    int
	code      *fountain.Code
	opens     chan protocol.Hello
	reqs      chan uint32
	serve     chan struct{}
	summaries chan summarySeen // what each SUMMARY said, while there is room
}

// summarySeen is what a probe read of one SUMMARY or SUMMARY_REFRESH.
type summarySeen struct {
	refresh       bool
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

// round is how many batches of an OPEN's round the probe answers: what a
// full sender answers — what was asked, but no more than cover what the
// opener's decode still needs, and at least one.
func (p *depthProbe) round(open protocol.Hello) int {
	if open.ContentID != 1 || open.Batch == 0 {
		return 0
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
			}
			if protocol.WriteFrame(ch, protocol.EncodeDone()) != nil {
				return
			}
		}
	}()
	for i := 0; i < round; i++ { // a full copy answers the OPEN's round
		pending <- open.Batch
	}
	for {
		f, err := ch.Next()
		if err != nil {
			return
		}
		if f.Type == protocol.TypeSummary || f.Type == protocol.TypeSummaryRefresh {
			if slice, slices, _, err := protocol.DecodeSummaryView(f); err == nil {
				select {
				case p.summaries <- summarySeen{f.Type == protocol.TypeSummaryRefresh, slice, slices}:
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

// TestFullSenderDepthFollowsWindow: against a full sender the session
// has nothing to probe for. Where the decode needs more than a window
// (k = 16384 here), it opens at the depth its channel window admits —
// its OPEN asks for 64 batches of 64 under the default 4096-frame
// window, and no REQUEST goes out before the first of them is answered —
// and a live SetChannelWindow moves that depth both ways at the next
// batch boundary, with no second knob.
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

// TestPartialSenderStartsAtDepthOne: a partial sender sends against a
// summary that ages while requests are in flight, so it ignores the
// OPEN's round, and the session starts at one outstanding REQUEST and
// adds one per useful batch.
func TestPartialSenderStartsAtDepthOne(t *testing.T) {
	defer checkGoroutines(t)()
	p := newDepthProbe(probeBlocks)
	_, stop := runProbe(t, 2, FetchOptions{}, p)
	defer stop()

	if got := p.outstanding(); got != 1 {
		t.Fatalf("first flight of REQUESTs to a partial sender = %d, want 1", got)
	}
	p.release(1)
	if got := p.outstanding(); got != 2 {
		t.Fatalf("after one useful batch: %d new REQUESTs, want 2 (depth 2)", got)
	}
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
	_, stop := runProbe(t, 1, FetchOptions{}, p)
	defer stop()
	p.opened(t)
	p.release(1) // the OPEN's first batch: the session tops its round up
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

// TestPartialSenderIgnoresTheOpen: a partial sender sends what the
// receiver's summary leaves missing, so it cannot answer a round asked
// for before any summary: it writes no SYMBOL until the session has sent
// its SUMMARY and a REQUEST, and then answers that REQUEST, against that
// summary, and nothing else.
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
	if got := ch.RemoteHello().Depth; got != 0 {
		t.Fatalf("partial sender's ACCEPT says %d batches, want 0", got)
	}
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote before the session's SUMMARY and REQUEST")
	}
	held := idsOf(syms[:60])
	sendSummary(t, ch, held, false)
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
// batches of 64 at the 4096-frame ceiling. A partial sender still
// answers none of it: its ACCEPT says 0 batches, and it writes nothing
// before the session's SUMMARY, nor after it until a REQUEST.
func TestPartialSenderWaitsForTheSummaryAtTheCeiling(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 100, 32)
	syms := orderedSymbols(t, info, data, 120, 5)
	srv, err := NewPartialServer(info, symbolMap(syms))
	if err != nil {
		t.Fatal(err)
	}
	ch, _, _, hangUp := openAsking(t, srv, protocol.Hello{Batch: 64, Depth: uint16(depthCap(peermux.DefaultWindow, 64)), Symbols: 60})
	defer hangUp()
	if got := ch.RemoteHello().Depth; got != 0 {
		t.Fatalf("partial sender's ACCEPT says %d batches, want 0", got)
	}
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote before the session's SUMMARY")
	}
	sendSummary(t, ch, idsOf(syms[:60]), false)
	if !quiet(t, ch) {
		t.Fatal("partial sender wrote after a SUMMARY, before any REQUEST")
	}
	if got := requestBatch(t, ch, 64); len(got) == 0 {
		t.Fatal("REQUEST after the SUMMARY answered nothing")
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
