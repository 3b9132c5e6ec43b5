package peer

// flight_test.go pins what the one-flight session setup and the
// window-derived request depth are for, at the session level: how many
// round trips a latency-bound fetch costs, that every way a peer can
// turn the first flight down still ends in its own terminal error with
// nobody charged, and which senders run at the window's depth and which
// still probe their way up.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"icd/internal/faultnet"
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
// are all it costs: k=1024 from a full sender, empty receiver. One turn
// brings the session up (MUX_HELLO, OPEN and CREDIT out; MUX_HELLO,
// ACCEPT and CREDIT back) and three move 1085 symbols through a
// 512-frame window at the window's own depth — 4 in all, where taking
// turns on both handshakes and ramping from depth 1 took 7.5; the
// content metadata is known after the first.
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
	// observation in the one peer.handshake_seconds histogram.
	reg := obs.NewRegistry()
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

	var whole, meta time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		whole, meta = fetch(dial)
		t.Logf("rtt %v (cpu %v): fetch %.2f RTT, metadata after %.2f RTT",
			rtt, cpu, float64(whole)/float64(rtt), float64(meta)/float64(rtt))
		if whole <= rtt*9/2 && meta <= rtt*3/2 {
			break
		}
	}
	if whole > rtt*9/2 || meta > rtt*3/2 {
		t.Errorf("fetch took %.2f RTT (want <= 4.5), WaitInfo %.2f RTT (want <= 1.5)",
			float64(whole)/float64(rtt), float64(meta)/float64(rtt))
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

// depthProbe serves content id 1 by hand, over a real accepted wire:
// hello as its ACCEPT, then every REQUEST it reads is reported on reqs
// and answered with that many symbols and a DONE — but only once the
// test allows it (one token on serve per REQUEST), so the number of
// REQUESTs outstanding at any moment is exactly the session's depth.
type depthProbe struct {
	reqs  chan uint32
	serve chan struct{}
}

func newDepthProbe() *depthProbe {
	return &depthProbe{reqs: make(chan uint32, 64), serve: make(chan struct{}, 64)}
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

// The probe's content is too large for its few batches ever to decode:
// the payloads are never looked at.
const probeBlocks = 1 << 14

var probeBlock = make([]byte, 16)

// serveChannel claims a full copy of content id 1 and a partial one of
// anything else.
func (p *depthProbe) serveChannel(ch *peermux.Channel) {
	id := ch.RemoteHello().ContentID
	err := ch.Accept(protocol.Hello{
		ContentID: id, FullCopy: id == 1, Symbols: probeBlocks,
		NumBlocks: probeBlocks, BlockSize: uint32(len(probeBlock)), OrigLen: uint64(len(probeBlock)) * probeBlocks,
		SummaryMask: protocol.AllSummaryMask,
	})
	if err != nil {
		return
	}
	pending := make(chan uint32, 64)
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
	for {
		f, err := ch.Next()
		if err != nil {
			return
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

// release lets the probe answer n REQUESTs.
func (p *depthProbe) release(n int) {
	for i := 0; i < n; i++ {
		p.serve <- struct{}{}
	}
}

// runProbe starts a fetch of contentID against the probe and returns the
// orchestrator plus a stop that cancels it and waits for the unwind.
func runProbe(t *testing.T, p *depthProbe, contentID uint64, opts FetchOptions) (*Orchestrator, func()) {
	t.Helper()
	pn := newPipeNet()
	addr := pn.add("probe", p)
	opts.Dial = pn.dial
	opts.DisableGossip = true
	opts.Timeout = 10 * time.Second
	o := NewOrchestrator(contentID, opts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.Run(ctx, addr)
	}()
	return o, func() {
		cancel()
		<-done
		pn.close()
	}
}

// TestFullSenderDepthFollowsWindow: against a full sender the session
// has nothing to probe for. It opens at the depth its channel window
// admits — 8 REQUESTs of 64 under the default 512-frame window, all out
// before the first symbol comes back — and a live SetChannelWindow moves
// that depth both ways at the next batch boundary, with no second knob.
func TestFullSenderDepthFollowsWindow(t *testing.T) {
	defer checkGoroutines(t)()
	p := newDepthProbe()
	o, stop := runProbe(t, p, 1, FetchOptions{})
	defer stop()

	if got := p.outstanding(); got != 8 {
		t.Fatalf("first flight of REQUESTs = %d, want 8 (512-frame window / batch 64)", got)
	}
	// Shrink to two batches' worth: as batches retire, nothing is
	// requested until fewer than two are outstanding.
	o.SetChannelWindow(128)
	p.release(6)
	if got := p.outstanding(); got != 0 {
		t.Fatalf("%d REQUESTs sent while 2..7 were outstanding under a 2-batch window", got)
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

// TestPartialSenderStartsAtDepthOne: a partial sender recodes against a
// summary that ages while requests are in flight, so the session still
// starts at one outstanding batch and adds one per useful batch.
func TestPartialSenderStartsAtDepthOne(t *testing.T) {
	defer checkGoroutines(t)()
	p := newDepthProbe()
	_, stop := runProbe(t, p, 2, FetchOptions{})
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
	p := newDepthProbe()
	_, stop := runProbe(t, p, 1, FetchOptions{})
	defer stop()
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
