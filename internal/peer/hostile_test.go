package peer

// hostile_test.go exercises the PR 6 misbehavior-containment paths end
// to end over the pipe harness: the stall watchdog dropping a silent
// peer, a corrupting peer accumulating penalties until it is banned and
// its redial budget short-circuited, dial-failed discoveries requeuing
// at decayed rank, terminal protocol errors skipping the backoff
// budget, and the server/mux inbound admission planes (connection cap,
// banned refusal, malformed-HELLO accounting). All tests run under
// -race in CI with the shared goroutine-leak check.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"icd/internal/keyset"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/protocol"
	"icd/internal/recon"
)

// awaitActive blocks until the given admission counter shows at least
// one connection holding a slot — the deterministic step barrier the
// over-cap tests need, since two ServeConn goroutines otherwise race
// for the only slot.
func awaitActive(t *testing.T, active *atomic.Int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for active.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no connection ever occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// peerByAddr finds addr's stats in a fetch result.
func peerByAddr(t *testing.T, res *FetchResult, addr string) PeerStats {
	t.Helper()
	for _, p := range res.Peers {
		if p.Addr == addr {
			return p
		}
	}
	t.Fatalf("no session stats for %s in %+v", addr, res.Peers)
	return PeerStats{}
}

// stallPhases returns the detail of every EvStall event traced for addr.
func stallPhases(reg *obs.Registry, addr string) []string {
	var phases []string
	for _, ev := range reg.Tracer().Events() {
		if ev.Event == obs.EvStall && ev.Subject == addr {
			phases = append(phases, ev.Detail)
		}
	}
	return phases
}

// muteServer handshakes correctly — wire and channel — then never
// answers another frame: the silent peer only a stall watchdog can
// unmask (the connection stays up, so no read error ever surfaces).
type muteServer struct{ info ContentInfo }

func (m muteServer) ServeConn(conn net.Conn) error {
	fr := protocol.NewFrameReader(conn)
	f, err := fr.Next()
	if err != nil {
		return err
	}
	mh, err := protocol.DecodeMuxHello(f)
	if err != nil {
		return err
	}
	w, err := peermux.Accept(conn, fr, mh, peermux.Config{}, func(ch *peermux.Channel) {
		if ch.Accept(m.info.hello(true, 0)) != nil {
			return
		}
		for { // swallow requests forever
			if _, err := ch.Next(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return w.Serve()
}

func TestStallWatchdogResetsAndEscalatesToBan(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 60, 32)
	defer h.pn.close() // stop the accept loops before the leak check
	h.pn.add("mute", muteServer{info: h.info})

	// A stall resets the connection rather than evicting the session: one
	// silent window can be a transient wire artifact (e.g. a corrupted
	// length field parking the reader), so the redial budget gets to try
	// again. A genuinely mute peer re-stalls every window and the
	// accumulated PenaltyStall charges ban it, which is what ends the
	// session — terminally, with budget to spare.
	reg := obs.NewRegistry()
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:               8,
		Timeout:             5 * time.Second,
		StallTimeout:        50 * time.Millisecond,
		MaxReconnects:       20,
		ReconnectBackoff:    time.Millisecond,
		MaxReconnectBackoff: 4 * time.Millisecond,
		Dial:                h.pn.dial,
		Obs:                 reg,
	})
	res, err := h.runAsync(o, "mute").waitErr()
	if err == nil {
		t.Fatal("fetch from a mute peer succeeded?!")
	}
	if phases := stallPhases(reg, "mute"); len(phases) == 0 || slices.Contains(phases, "open") {
		t.Fatalf("a peer that accepts and goes mute stalls in the window phase, traced %q", phases)
	}
	if res == nil {
		t.Fatal("incomplete fetch must still report peer stats")
	}
	st := peerByAddr(t, res, "mute")
	wantStalls := int(DefaultBanScore / PenaltyStall)
	if st.Stalls < wantStalls {
		t.Fatalf("mute peer should stall to the ban threshold (>= %d), got %+v", wantStalls, st)
	}
	if !st.Banned {
		t.Fatalf("repeated stalls must escalate to a ban: %+v", st)
	}
	if st.Evicted {
		t.Fatalf("a stall is a reset, not an eviction: %+v", st)
	}
	if st.Resets != 0 {
		t.Fatalf("stall resets must not double-charge as connection resets: %+v", st)
	}
	if st.Reconnects >= 20 {
		t.Fatalf("ban should end the session before the redial budget runs out: %+v", st)
	}
	if score := o.Penalties().Score("mute"); score < 0.9*DefaultBanScore {
		t.Fatalf("stall penalties not accumulated: score %v", score)
	}
}

// deafServer swallows the wire handshake and never answers it — what a
// dial looks like to the client when a fault corrupts the answer's
// length field and its reader parks waiting for a phantom body.
type deafServer struct{}

func (deafServer) ServeConn(conn net.Conn) error {
	_, err := io.Copy(io.Discard, conn)
	return err
}

// TestFinishedTransferDoesNotWaitOutStuckOpen: a session still parked
// in the wire handshake when the transfer completes ends with the
// fetch's context — abandoned, not sat out for the whole Timeout, and
// not a failure of the peer.
func TestFinishedTransferDoesNotWaitOutStuckOpen(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 60, 32)
	defer h.pn.close() // stop the accept loops before the leak check
	h.addFull("seed", 0)
	h.pn.add("deaf", deafServer{})

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:   8,
		Timeout: time.Minute, // the stuck handshake's own deadline
		Dial:    h.pn.dial,
	})
	start := time.Now()
	res := h.runAsync(o, "seed", "deaf").wait(t)
	h.verify(res)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Run took %v: the finished transfer waited on the stuck open", elapsed)
	}
	if st := peerByAddr(t, res, "deaf"); st.Err != nil || st.DialFailures != 0 {
		t.Fatalf("an abandoned open is not a failure: %+v", st)
	}
}

// wedgedServer shakes hands on the wire, then answers the OPEN_CHANNEL
// with an ACCEPT_CHANNEL whose length field promises more bytes than
// follow, and goes silent: the dialer's reader parks inside the frame
// body, the ACCEPT never parses, and no read error ever surfaces — the
// chaos swarm's corrupted-length-field artifact, reproduced on purpose.
// second closes when the second connection arrives.
type wedgedServer struct {
	info   ContentInfo
	conns  atomic.Int64
	second chan struct{}
}

func (w *wedgedServer) ServeConn(conn net.Conn) error {
	if w.conns.Add(1) == 2 {
		close(w.second)
	}
	fr := protocol.NewFrameReader(conn)
	if _, err := fr.Next(); err != nil { // MUX_HELLO
		return err
	}
	if err := protocol.WriteFrame(conn, protocol.EncodeMuxHello(protocol.MuxHello{MaxChannels: 4})); err != nil {
		return err
	}
	f, err := fr.Next()
	if err != nil {
		return err
	}
	id, _, err := protocol.DecodeOpenChannel(f)
	if err != nil {
		return err
	}
	var accept bytes.Buffer
	protocol.WriteFrame(&accept, protocol.EncodeAcceptChannel(id, w.info.hello(true, 0)))
	if _, err := conn.Write(accept.Bytes()[:accept.Len()-11]); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn) // the CREDIT, then nothing until the dialer hangs up
	return err
}

// TestUnansweredOpenStallsAndRedials: an open nobody answers sits under
// the stall watchdog like an established channel does. The honest
// sender cannot be dialed until the wedged peer has been dialed a second
// time, so the fetch completes only if the watchdog gave the first open
// up — after StallTimeout, not after the 30 s Timeout — and the redial
// went out on a fresh connection instead of the wedged wire.
func TestUnansweredOpenStallsAndRedials(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 60, 32)
	defer h.pn.close() // stop the accept loops before the leak check
	h.addFull("seed", 0)
	wedged := &wedgedServer{info: h.info, second: make(chan struct{})}
	h.pn.add("wedged", wedged)

	reg := obs.NewRegistry()
	o := NewOrchestrator(h.info.ID, FetchOptions{
		Obs:              reg,
		Batch:            8,
		Timeout:          30 * time.Second,
		StallTimeout:     200 * time.Millisecond,
		MaxReconnects:    20,
		ReconnectBackoff: time.Millisecond,
		DisableGossip:    true,
		Dial: func(addr string) (net.Conn, error) {
			if addr == "seed" {
				<-wedged.second
			}
			return h.pn.dial(addr)
		},
	})
	start := time.Now()
	res := h.runAsync(o, "seed", "wedged").wait(t)
	h.verify(res)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fetch took %v: the unanswered open was sat out, not stalled", elapsed)
	}
	st := peerByAddr(t, res, "wedged")
	if st.Stalls < 1 || st.Reconnects < 1 {
		t.Fatalf("the unanswered open must stall and redial: %+v", st)
	}
	if st.DialFailures != 0 || st.Resets != 0 || st.Evicted || st.Err != nil {
		t.Fatalf("a stalled open is charged as a stall and nothing else: %+v", st)
	}
	charged := float64(st.Stalls) * PenaltyStall // less a few seconds of a 30 s half-life
	if score := o.Penalties().Score("wedged"); score < 0.9*charged || score > charged {
		t.Fatalf("score %v after %d stalls, want PenaltyStall each (%v)", score, st.Stalls, charged)
	}
	if phases := stallPhases(reg, "wedged"); len(phases) != st.Stalls || slices.Contains(phases, "window") {
		t.Fatalf("%d stalls traced as %q, want every one in the open phase", st.Stalls, phases)
	}
	if n := wedged.conns.Load(); n < 2 {
		t.Fatalf("wedged peer saw %d connections: the redial reused the wedged wire", n)
	}
}

// junkServer drains whatever the client says and answers with bytes
// that can never parse as a frame — the always-corrupting peer.
type junkServer struct{}

func (junkServer) ServeConn(conn net.Conn) error {
	go io.Copy(io.Discard, conn)
	junk := bytes.Repeat([]byte{0xFF}, 64)
	for {
		if _, err := conn.Write(junk); err != nil {
			return err
		}
	}
}

func TestCorruptPeerBannedAndRedialShortCircuited(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 120, 48)
	defer h.pn.close() // stop the accept loops before the leak check
	h.addFull("seed", time.Millisecond)
	h.pn.add("evil", junkServer{})

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:             8,
		Timeout:           10 * time.Second,
		MaxUselessBatches: 1 << 20,
		MaxReconnects:     10,
		ReconnectBackoff:  time.Millisecond,
		Dial:              h.pn.dial,
	})
	res := h.runAsync(o, "seed", "evil").wait(t)
	h.verify(res)

	st := peerByAddr(t, res, "evil")
	if st.CorruptFrames < 3 {
		t.Fatalf("expected ≥3 corrupt-frame connections before the ban, got %+v", st)
	}
	if !st.Banned {
		t.Fatalf("corrupting peer not banned: %+v", st)
	}
	if !o.Penalties().Banned("evil") {
		t.Fatal("penalty box does not report the ban")
	}
	// Containment: the ban must end the session well before the full
	// redial budget (10) is spent on a hostile address.
	if st.Reconnects > 5 {
		t.Fatalf("banned peer consumed %d redials — ban did not short-circuit", st.Reconnects)
	}

	// Admission: a second orchestrator sharing the box must refuse the
	// banned address outright while still admitting unknown ones. The
	// clean address has no server behind it, so its probe session dials,
	// fails, and winds down on its own.
	o2 := NewOrchestrator(h.info.ID, FetchOptions{Dial: h.pn.dial, Penalties: o.Penalties()})
	if o2.considerDiscovered(protocol.PeerAd{ContentID: h.info.ID, Addr: "evil"}) {
		t.Fatal("gossip admission accepted a banned address")
	}
	if !o2.considerDiscovered(protocol.PeerAd{ContentID: h.info.ID, Addr: "unknown-clean"}) {
		t.Fatal("gossip admission refused a clean address")
	}
}

func TestTerminalErrorsSkipRedialBudget(t *testing.T) {
	// The classifier itself, through wrapping.
	for _, err := range []error{
		fmt.Errorf("peer x: %w", ErrUnknownContent),
		fmt.Errorf("peer x: incompatible protocol: %w", protocol.ErrVersion),
	} {
		if !terminalSessionError(err) {
			t.Fatalf("%v not classified terminal", err)
		}
	}
	if terminalSessionError(errors.New("connection reset")) {
		t.Fatal("ordinary reset classified terminal")
	}

	// End to end: a peer serving a *different* content rejects the channel
	// with the canonical unknown-content reason; the session must fail on
	// the first dial with no redials despite a generous budget.
	defer checkGoroutines(t)()
	h := newHarness(t, 40, 32)
	defer h.pn.close() // stop the accept loops before the leak check
	otherInfo, otherData := testContentID(t, 0xBEEF, 40, 32)
	srv, err := NewFullServer(otherInfo, otherData)
	if err != nil {
		t.Fatal(err)
	}
	h.pn.add("wrong", front(srv))

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:            8,
		Timeout:          5 * time.Second,
		MaxReconnects:    8,
		ReconnectBackoff: time.Millisecond,
		Dial:             h.pn.dial,
	})
	res, runErr := h.runAsync(o, "wrong").waitErr()
	if runErr == nil {
		t.Fatal("fetch of unknown content succeeded?!")
	}
	st := peerByAddr(t, res, "wrong")
	if !errors.Is(st.Err, ErrUnknownContent) {
		t.Fatalf("session error = %v, want ErrUnknownContent", st.Err)
	}
	if st.Reconnects != 0 {
		t.Fatalf("terminal error consumed %d redials", st.Reconnects)
	}
	if got := h.pn.dialCount("wrong"); got != 1 {
		t.Fatalf("peer dialed %d times, want exactly 1", got)
	}
}

// TestRefusedPeerTerminalAndUncharged pins the no-retaliation rule: a
// node that refuses us (our address in its penalty box) answers the
// wire handshake with the canonical refused ERROR, and the session must
// end terminally on the first dial — no redial burn, no dial failure
// counted, and no penalty charged back at the refuser. Without the
// explicit signal the refusal reads as a dead peer, and two nodes that
// each misattributed one environmental fault charge each other into a
// permanent mutual ban.
func TestRefusedPeerTerminalAndUncharged(t *testing.T) {
	defer checkGoroutines(t)()
	// Enough blocks that the seed cannot finish the transfer while the
	// refusal is still in flight (an open the transfer's end walks away
	// from has no verdict to record).
	h := newHarness(t, 1200, 32)
	defer h.pn.close() // stop the accept loops before the leak check
	h.addFull("seed", 0)
	grudge, err := NewFullServer(h.info, h.data)
	if err != nil {
		t.Fatal(err)
	}
	grudgeBox := NewPenaltyBox()
	grudgeBox.Penalize("pipe", 2*DefaultBanScore) // pipeNet dials all carry source identity "pipe"
	grudgeMux := front(grudge)
	grudgeMux.SetPenalties(grudgeBox)
	h.pn.add("grudge", grudgeMux)

	o := NewOrchestrator(h.info.ID, FetchOptions{
		Batch:            8,
		Timeout:          5 * time.Second,
		MaxReconnects:    8,
		ReconnectBackoff: time.Millisecond,
		Dial:             h.pn.dial,
	})
	res := h.runAsync(o, "seed", "grudge").wait(t)
	h.verify(res)

	st := peerByAddr(t, res, "grudge")
	if !errors.Is(st.Err, ErrRefused) {
		t.Fatalf("session error = %v, want ErrRefused", st.Err)
	}
	if st.Reconnects != 0 {
		t.Fatalf("refused peer consumed %d redials", st.Reconnects)
	}
	if st.DialFailures != 0 {
		t.Fatalf("an explicit refusal counted as %d dial failure(s)", st.DialFailures)
	}
	if got := grudgeMux.Stats().Banned; got != 1 {
		t.Fatalf("grudge mux refused %d connections at admission, want 1", got)
	}
	if got := h.pn.dialCount("grudge"); got != 1 {
		t.Fatalf("refusing peer dialed %d times, want exactly 1", got)
	}
	if score := o.Penalties().Score("grudge"); score != 0 {
		t.Fatalf("refusing peer charged back (score %v) — retaliation loop", score)
	}
}

func TestDialFailedDiscoveryRequeuesAtDecayedRank(t *testing.T) {
	defer checkGoroutines(t)()
	failDial := func(addr string) (net.Conn, error) {
		return nil, errors.New("connection refused")
	}
	o := NewOrchestrator(0xD1A1, FetchOptions{Dial: failDial})

	// A discovered session that burned its dials without ever reaching
	// the address requeues with a growing fails count — until the budget.
	ghost := newSession(o, "ghost")
	ghost.stats.Discovered = true
	ghost.stats.Err = errors.New("connection refused")
	o.mu.Lock()
	for i := 1; i <= maxCandidateRedials; i++ {
		o.candidates = o.candidates[:0]
		o.maybeRequeueLocked(ghost)
		if len(o.candidates) != 1 || o.candidates[0].fails != i {
			t.Fatalf("requeue %d: candidates %+v", i, o.candidates)
		}
	}
	o.candidates = o.candidates[:0]
	o.maybeRequeueLocked(ghost)
	if len(o.candidates) != 0 {
		t.Fatalf("requeue past the %d budget: %+v", maxCandidateRedials, o.candidates)
	}

	// Sessions that connected, were dropped, or failed terminally never
	// requeue.
	for name, tweak := range map[string]func(*session){
		"reached":  func(s *session) { s.connected = true },
		"evicted":  func(s *session) { s.stats.Evicted = true },
		"terminal": func(s *session) { s.stats.Err = fmt.Errorf("x: %w", ErrUnknownContent) },
	} {
		s := newSession(o, name)
		s.stats.Discovered = true
		s.stats.Err = errors.New("reset")
		tweak(s)
		o.maybeRequeueLocked(s)
		if len(o.candidates) != 0 {
			t.Fatalf("%s session requeued: %+v", name, o.candidates)
		}
	}

	// Promotion ranks every fresh discovery above every requeued address,
	// regardless of arrival order.
	o.candidates = append(o.candidates[:0],
		gossipCandidate{ad: protocol.PeerAd{ContentID: 0xD1A1, Addr: "ghost"}, seq: 0, fails: 1},
		gossipCandidate{ad: protocol.PeerAd{ContentID: 0xD1A1, Addr: "fresh"}, seq: 1},
	)
	o.promoteCandidateLocked()
	if n := len(o.stats); n == 0 || o.stats[n-1].Addr != "fresh" {
		t.Fatalf("fresh discovery not promoted first: %+v", o.stats)
	}
	if len(o.candidates) != 1 || o.candidates[0].ad.Addr != "ghost" {
		t.Fatalf("requeued address should still be waiting: %+v", o.candidates)
	}
	o.promoteCandidateLocked()
	if n := len(o.stats); o.stats[n-1].Addr != "ghost" {
		t.Fatalf("requeued address never promoted: %+v", o.stats)
	}
	o.mu.Unlock()
	o.finish() // unwind the two fail-dial session goroutines
}

func TestMuxMalformedHelloChargedAndBanned(t *testing.T) {
	defer checkGoroutines(t)()
	mux := NewServerMux()
	box := NewPenaltyBox()
	mux.SetPenalties(box)

	// A HELLO that is pure garbage: the mux must count it, charge the
	// penalty box, and surface protocol.ErrCorrupt.
	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- mux.ServeConn(server) }()
	if _, err := client.Write(bytes.Repeat([]byte{0xEE}, 8)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, protocol.ErrCorrupt) {
		t.Fatalf("malformed HELLO error = %v, want ErrCorrupt", err)
	}
	client.Close()
	server.Close()
	if st := mux.Stats(); st.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", st.Malformed)
	}
	key := remoteKey(server)
	// 0.9×: the score decays continuously between the charge and the read.
	if score := box.Score(key); score < 0.9*PenaltyCorrupt {
		t.Fatalf("corrupt HELLO not charged: score(%s) = %v", key, score)
	}

	// Push the address over the threshold: the next connection must be
	// refused at admission with the canonical refused ERROR (its frame is
	// drained, never routed).
	box.Penalize(key, 2*DefaultBanScore)
	c2, s2 := net.Pipe()
	defer c2.Close()
	refused := make(chan error, 1)
	go func() { refused <- mux.ServeConn(s2) }()
	if _, err := c2.Write(bytes.Repeat([]byte{0xEE}, 8)); err != nil {
		t.Fatal(err)
	}
	f2, err := protocol.NewFrameReader(c2).Next()
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if msg, _ := protocol.DecodeError(f2); !protocol.IsRefused(msg) {
		t.Fatalf("banned answer says %q, want canonical refusal", msg)
	}
	if err := <-refused; err == nil {
		t.Fatal("banned client admitted by mux")
	}
	if st := mux.Stats(); st.Banned != 1 {
		t.Fatalf("Banned = %d, want 1", st.Banned)
	}
}

// namedConn overrides an inbound pipe's remote address — the
// listen-addr verification tests need connections with a definite
// remote host.
type namedConn struct {
	net.Conn
	remote net.Addr
}

func (c namedConn) RemoteAddr() net.Addr { return c.remote }

func tcpRemote(host string, port int) net.Addr {
	return &net.TCPAddr{IP: net.ParseIP(host), Port: port}
}

// dialMux brings up one fabric wire to mux over a net.Pipe whose serving
// end reports remote as its peer address (the listen-addr verification
// tests need connections with a definite remote host; nil keeps the
// pipe's own). It returns the
// dialed wire, the raw client conn under it (for injecting garbage), and
// the channel mux.ServeConn's result arrives on.
func dialMux(t *testing.T, mux *ServerMux, remote net.Addr) (*peermux.Wire, net.Conn, <-chan error) {
	t.Helper()
	client, server := net.Pipe()
	var sconn net.Conn = server
	if remote != nil {
		sconn = namedConn{Conn: server, remote: remote}
	}
	served := make(chan error, 1)
	go func() {
		served <- mux.ServeConn(sconn)
		server.Close()
	}()
	w, err := peermux.Dial(client, peermux.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("fabric handshake: %v", err)
	}
	return w, client, served
}

// TestCorruptSessionListenAddrSpoofNotCharged pins the attribution rule
// for the attacker-controlled HELLO listen address: corruption charges
// the advertised address only when its host matches the connection's
// remote host. Without the check, any client could ban an innocent
// third party node-wide by advertising the victim's address and then
// corrupting its own stream.
func TestCorruptSessionListenAddrSpoofNotCharged(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 40, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	box := NewPenaltyBox()
	mux := front(srv)
	mux.SetPenalties(box)

	corruptAs := func(remote net.Addr, listenAddr string) error {
		t.Helper()
		w, client, served := dialMux(t, mux, remote)
		defer w.Close()
		ch, err := w.Open(protocol.Hello{ContentID: info.ID, ListenAddr: listenAddr}, 5*time.Second)
		if err != nil {
			t.Fatalf("opening the channel: %v", err)
		}
		// One whole batch first, so the session is parked reading its next
		// frame (not still writing its opening grant) when the garbage lands.
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(1)); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := ch.Next()
			if err != nil {
				t.Fatalf("reading the batch: %v", err)
			}
			if f.Type == protocol.TypeDone {
				break
			}
		}
		// Exactly one frame header of garbage: the reader rejects it after
		// those 8 bytes, so a longer write would block on the dead pipe.
		if _, err := client.Write(bytes.Repeat([]byte{0xEE}, 8)); err != nil {
			t.Fatal(err)
		}
		return <-served
	}

	// A client at 10.9.8.7 advertising an innocent third party's address:
	// the corruption must charge the client's host, never the victim.
	if err := corruptAs(tcpRemote("10.9.8.7", 40001), "203.0.113.5:9000"); !errors.Is(err, protocol.ErrCorrupt) {
		t.Fatalf("corrupt session error = %v, want ErrCorrupt", err)
	}
	if score := box.Score("203.0.113.5:9000"); score != 0 {
		t.Fatalf("spoofed listen address charged: score %v", score)
	}
	if score := box.Score("10.9.8.7"); score < 0.9*PenaltyCorrupt {
		t.Fatalf("remote host not charged: score %v", score)
	}
	if got := srv.Stats().Malformed; got != 1 {
		t.Fatalf("content server counted %d malformed sessions, want 1", got)
	}

	// A client advertising its own (host-matching) listen address: that
	// dialable address is charged too — the verified bridge from the
	// server plane into gossip admission. (A fresh host, so the charges
	// above stay clear of the wire's own admission threshold.)
	if err := corruptAs(tcpRemote("10.9.8.8", 40002), "10.9.8.8:9000"); !errors.Is(err, protocol.ErrCorrupt) {
		t.Fatalf("corrupt session error = %v, want ErrCorrupt", err)
	}
	if score := box.Score("10.9.8.8:9000"); score < 0.9*PenaltyCorrupt {
		t.Fatalf("verified listen address not charged: score %v", score)
	}
}

// TestBannedDialableAddressRefusedInbound pins the second admission
// stage: a peer banned under its dialable address (dial-plane charges
// use host:port keys, which a bare remote-host check can never match)
// is refused once its channel's HELLO advertises that address and the
// host verifies — while an unverified advertisement of the same banned
// address changes nothing.
func TestBannedDialableAddressRefusedInbound(t *testing.T) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 40, 32)
	srv, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	box := NewPenaltyBox()
	mux := front(srv)
	mux.SetPenalties(box)
	box.Penalize("10.9.8.7:9000", 2*DefaultBanScore)
	hello := protocol.Hello{ContentID: info.ID, ListenAddr: "10.9.8.7:9000"}

	// Verified: same host as the connection → the channel is rejected
	// with the canonical refusal after its HELLO.
	w, _, served := dialMux(t, mux, tcpRemote("10.9.8.7", 40003))
	_, err = w.Open(hello, 5*time.Second)
	var rej *peermux.RejectError
	if !errors.As(err, &rej) || !protocol.IsRefused(rej.Msg) {
		t.Fatalf("banned dialable address: open err = %v, want a refused rejection", err)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	w.Close()
	<-served

	// Unverified: a different host advertising the banned address must
	// still be served — anyone can name anyone in a HELLO.
	w2, _, served2 := dialMux(t, mux, tcpRemote("192.0.2.1", 40004))
	ch, err := w2.Open(hello, 5*time.Second)
	if err != nil {
		t.Fatalf("unverified advertisement refused the session: %v", err)
	}
	if err := protocol.WriteFrame(ch, protocol.EncodeDone()); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	<-served2
	if got := srv.Stats().Connections; got != 1 {
		t.Fatalf("served %d sessions, want 1 (the unverified one)", got)
	}
}

// TestMuxBusyAnswerDoesNotPoisonAdmission pins the over-cap refusal
// path against a mute client that never reads: the admission slot must
// be released before the busy write (not after ServeConn returns), and
// the write itself must unpark via its own deadline instead of leaking
// the goroutine.
func TestMuxBusyAnswerDoesNotPoisonAdmission(t *testing.T) {
	defer checkGoroutines(t)()
	mux := NewServerMux()
	mux.timeout = 100 * time.Millisecond // bounds the busy write below
	mux.SetMaxConns(1)

	c1, s1 := net.Pipe()
	hold := make(chan error, 1)
	go func() { hold <- mux.ServeConn(s1) }()
	awaitActive(t, &mux.active)

	c2, s2 := net.Pipe()
	defer c2.Close()
	defer s2.Close()
	busy := make(chan error, 1)
	go func() { busy <- mux.ServeConn(s2) }()
	select {
	case err := <-busy:
		if err == nil {
			t.Fatal("over-cap ServeConn returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("busy answer to a mute client blocked past its write deadline")
	}
	c1.Close()
	<-hold
	// Both connections have fully unwound: a leaked slot from the busy
	// path would show here as a permanently elevated counter, refusing
	// every future inbound connection as busy.
	if got := mux.active.Load(); got != 0 {
		t.Fatalf("active = %d after both connections ended, want 0", got)
	}
	if st := mux.Stats(); st.Busy != 1 {
		t.Fatalf("Busy = %d, want 1", st.Busy)
	}
}

func TestMuxInboundCapBusyError(t *testing.T) {
	defer checkGoroutines(t)()
	mux := NewServerMux()
	mux.SetMaxConns(1)

	c1, s1 := net.Pipe()
	hold := make(chan error, 1)
	go func() { hold <- mux.ServeConn(s1) }()
	awaitActive(t, &mux.active)

	c2, s2 := net.Pipe()
	busy := make(chan error, 1)
	go func() { busy <- mux.ServeConn(s2) }()
	f, err := protocol.NewFrameReader(c2).Next()
	if err != nil {
		t.Fatalf("reading busy answer: %v", err)
	}
	if msg, _ := protocol.DecodeError(f); f.Type != protocol.TypeError || !bytes.Contains([]byte(msg), []byte("busy")) {
		t.Fatalf("over-cap answer = %v %q, want busy ERROR", f.Type, msg)
	}
	if err := <-busy; err == nil {
		t.Fatal("over-cap ServeConn returned nil")
	}
	c2.Close()
	s2.Close()
	c1.Close()
	<-hold
	if st := mux.Stats(); st.Busy != 1 {
		t.Fatalf("Busy = %d, want 1", st.Busy)
	}
}

// TestMalformedSummarySliceRefused: a summary naming slice 2 of 2 — a
// slice the id space does not have — is refused like any bad summary, and
// so is one whose blob is not a Bloom filter (here an ART summary, a
// method this wire no longer has) and one too short for the slice fields.
// In a SUMMARY frame the sender answers an ERROR; in the OPEN it rejects
// the channel, a verdict the opener's session retries. Either way it
// sends no symbol and ends the session with an error.
func TestMalformedSummarySliceRefused(t *testing.T) {
	filter, err := bloomSummary([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	art, err := recon.Build(recon.DefaultParams, keyset.FromKeys([]uint64{1, 2, 3})).Summarize(recon.SummaryOptions{
		TotalBitsPerElement: 8, LeafBitsPerElement: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	notAFilter, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"slice 2 of 2", protocol.EncodeSummary(2, 2, filter).Payload},
		{"not a Bloom filter", protocol.EncodeSummary(0, 0, notAFilter).Payload},
		{"shorter than the slice fields", []byte{0, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("frame", func(t *testing.T) { refuseSummary(t, tc.payload, false) })
			t.Run("open", func(t *testing.T) { refuseSummary(t, tc.payload, true) })
		})
	}
}

// refuseSummary sends a partial sender's fresh session the summary
// payload — in the OPEN, which also asks for a round, or in a SUMMARY
// frame behind it — and checks that the sender refuses it: a REJECT_CHANNEL
// "bad summary" that the opener's session would retry, or the bad summary
// ERROR, with no symbol sent and the session ended with an error.
func refuseSummary(t *testing.T, payload []byte, inOpen bool) {
	defer checkGoroutines(t)()
	info, data := testContent(t, 60, 32)
	srv, err := NewPartialServer(info, partialSymbols(t, info, data, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	served := make(chan error, 1)
	go func() {
		defer server.Close()
		fr := protocol.NewFrameReader(server)
		f, err := fr.Next()
		if err != nil {
			served <- err
			return
		}
		mh, err := protocol.DecodeMuxHello(f)
		if err != nil {
			served <- err
			return
		}
		w, err := peermux.Accept(server, fr, mh, peermux.Config{}, func(ch *peermux.Channel) { served <- srv.ServeChannel(ch) })
		if err != nil {
			served <- err
			return
		}
		w.Serve()
	}()
	w, err := peermux.Dial(client, peermux.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if inOpen {
		_, err := w.Open(protocol.Hello{ContentID: info.ID, Batch: 16, Depth: 4, Summary: payload}, 5*time.Second)
		var rej *peermux.RejectError
		if !errors.As(err, &rej) || rej.Msg != "bad summary" {
			t.Fatalf("open = %v, want the bad summary REJECT_CHANNEL", err)
		}
		if protocol.IsUnknownContent(rej.Msg) || protocol.IsRefused(rej.Msg) {
			t.Fatalf("%q reads as a terminal verdict, want a retryable one", rej.Msg)
		}
		if got := srv.Stats().SymbolsSent; got != 0 {
			t.Fatalf("the sender sent %d symbols against a malformed summary", got)
		}
	} else {
		ch, err := w.Open(protocol.Hello{ContentID: info.ID}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := protocol.WriteFrame(ch, protocol.Frame{Type: protocol.TypeSummary, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		ch.SetDeadline(time.Now().Add(5 * time.Second))
		answer, err := ch.Next()
		if err != nil {
			t.Fatalf("reading the answer: %v", err)
		}
		if msg, _ := protocol.DecodeError(answer); answer.Type != protocol.TypeError || msg != "bad summary" {
			t.Fatalf("answer = %v %q, want the bad summary ERROR", answer.Type, msg)
		}
	}
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("the session served on after a malformed summary")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the session did not end")
	}
}

// TestRetiredRefreshFrameRefused: type 11 was SUMMARY's refresh variant
// until wire version 12, when the first summary moved into the OPEN and
// every SUMMARY became a refresh. A frame of that type reaching a sender,
// full or partial, is refused as unexpected: an ERROR, and the session
// ends.
func TestRetiredRefreshFrameRefused(t *testing.T) {
	info, data := testContent(t, 60, 32)
	full, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := NewPartialServer(info, partialSymbols(t, info, data, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bloomSummary([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{full, partial} {
		t.Run(fmt.Sprintf("full=%v", srv.Full()), func(t *testing.T) {
			ch := openSession(t, srv)
			refresh := protocol.Frame{Type: protocol.Type(11), Payload: protocol.EncodeSummary(0, 0, blob).Payload}
			if err := protocol.WriteFrame(ch, refresh); err != nil {
				t.Fatal(err)
			}
			ch.SetDeadline(time.Now().Add(5 * time.Second))
			answer, err := ch.Next()
			if err != nil {
				t.Fatalf("reading the answer: %v", err)
			}
			if msg, _ := protocol.DecodeError(answer); answer.Type != protocol.TypeError || msg != "unexpected Type(11)" {
				t.Fatalf("answer = %v %q, want the unexpected-frame ERROR", answer.Type, msg)
			}
			if f, err := ch.Next(); err == nil {
				t.Fatalf("the session went on after the ERROR: read %v", f.Type)
			}
		})
	}
}
