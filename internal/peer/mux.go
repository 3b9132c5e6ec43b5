package peer

// mux.go is the serving front door — the only one: one listener for
// every content a node stores. A ServerMux owns the accept loop and
// admission (banned remote hosts, the inbound cap, banned listen
// addresses), answers each connection's MUX_HELLO to bring up a fabric
// wire, and serves every subchannel the peer opens with the registered
// Server whose content id the OPEN named — unknown ids are answered with
// the canonical unknown-content rejection so receivers can write the
// peer off for that content without retrying. It is also the one owner
// of the serving plane: the peer directory every serving session learns
// clients into and relays from, the penalty box, the serve.* and mux.*
// counters (read them from the registry SetObs attaches) and the
// timeout. A Server is only its content. Contents register and
// unregister live (a node registers a live server as soon as a fetch's
// first handshake fixes the metadata, and unregisters when the content
// store evicts a replica); in-flight sessions survive an unregister —
// they hold their own *Server — only new channels see the change.

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/protocol"
)

// ServerMux serves many contents on one listener, routing each inbound
// channel to the registered Server for its content id. The zero value is
// not usable; call NewServerMux. All methods are safe for concurrent
// use.
type ServerMux struct {
	// gossip is the peer directory: clients' listen addresses are learned
	// into it, and its best for the content are relayed to every client.
	gossip *Gossip
	// timeout bounds every read of a serving session, and the wire's.
	timeout time.Duration

	maxConns  atomic.Int64               // node-wide inbound connection cap (0 = unlimited)
	active    atomic.Int64               // inbound connections currently admitted
	penalties atomic.Pointer[PenaltyBox] // nil = no penalty plane (a nil box is inert)

	mu       sync.Mutex
	servers  map[uint64]*Server
	pending  map[uint64]bool // fetches awaiting their first handshake: retryable, not unknown
	onLookup func(contentID uint64, found bool)
	ln       net.Listener
	conns    map[net.Conn]struct{} // accepted by Serve and still being served
	closed   bool
	wg       sync.WaitGroup

	// met are the mux.* counters the admission paths add into, and served
	// the serve.* counters every serving session adds into: private until
	// SetObs resolves them from a node's registry.
	met    muxMetrics
	served serveMetrics
}

// NewServerMux creates an empty multi-content listener with a peer
// directory of its own, so even a bare mux relays the client addresses
// it hears: that is what lets a swarm bootstrapped from one seed address
// self-assemble.
func NewServerMux() *ServerMux {
	return &ServerMux{
		gossip:  NewGossip(""),
		timeout: 30 * time.Second,
		servers: make(map[uint64]*Server),
		pending: make(map[uint64]bool),
		conns:   make(map[net.Conn]struct{}),
		met:     newMuxMetrics(nil),
		served:  newServeMetrics(nil),
	}
}

// SetPending marks a content id as expected-but-not-yet-servable (a
// fetch whose first handshake has not fixed the metadata, so no live
// server exists to register). An OPEN naming a pending id is rejected
// with a *generic* reason instead of the canonical unknown-content one:
// the answer is not terminal and not charged, so a dialer with
// FetchOptions.MaxReconnects left backs off and redials rather than
// writing this node off for a content it is about to have (at the
// default, 0, its session ends there).
// Clear it once the real server registers (or the fetch dies).
func (m *ServerMux) SetPending(contentID uint64, pending bool) {
	m.mu.Lock()
	if pending {
		m.pending[contentID] = true
	} else {
		delete(m.pending, contentID)
	}
	m.mu.Unlock()
}

// SetGossip replaces the mux's own peer directory with the node-wide one
// a node's fetches share (FetchOptions.Gossip), so client addresses heard
// on any content flow into the directory its fetches admit from. Call
// before Serve.
func (m *ServerMux) SetGossip(g *Gossip) {
	if g != nil {
		m.gossip = g
	}
}

// SetMaxConns caps concurrently served inbound connections across all
// contents (0 = unlimited); over-cap connections get a retryable busy
// ERROR and are closed. Safe to adjust while serving.
func (m *ServerMux) SetMaxConns(n int) { m.maxConns.Store(int64(n)) }

// SetPenalties installs the node-wide misbehavior penalty box: inbound
// connections from banned addresses are refused before the handshake,
// channels whose opener advertises a banned (and verified) listen
// address are refused, and clients that send corrupt frames are charged
// on any content they touch. A collaborative node shares one box between
// its fetches (FetchOptions.Penalties) and its mux.
func (m *ServerMux) SetPenalties(p *PenaltyBox) {
	if p != nil {
		m.penalties.Store(p)
	}
}

// SetObs attaches the node-wide observability registry, the one source
// of the mux's counts: admission counts into its mux.* metrics and every
// session served into its serve.* ones. Call before Serve.
func (m *ServerMux) SetObs(r *obs.Registry) {
	if r != nil {
		m.met, m.served = newMuxMetrics(r), newServeMetrics(r)
	}
}

// SetLookupHook installs fn to run on every routed channel OPEN with the
// requested content id and whether it was found — the signal a content
// store uses to track per-replica serve demand. Call before Serve.
func (m *ServerMux) SetLookupHook(fn func(contentID uint64, found bool)) {
	m.mu.Lock()
	m.onLookup = fn
	m.mu.Unlock()
}

// Register adds a content server to the mux (its content id becomes
// routable on the shared listener). Registering a duplicate id is an
// error; replace by Unregister first.
func (m *ServerMux) Register(s *Server) error {
	if s == nil {
		return errors.New("peer: nil server")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := s.Info().ID
	if _, dup := m.servers[id]; dup {
		return fmt.Errorf("peer: content %#x already registered", id)
	}
	m.servers[id] = s
	return nil
}

// Unregister removes a content id from the mux. New handshakes naming
// it get the unknown-content ERROR; sessions already running keep their
// server and drain normally. It reports whether the id was registered.
func (m *ServerMux) Unregister(contentID uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.servers[contentID]; !ok {
		return false
	}
	delete(m.servers, contentID)
	return true
}

// Lookup returns the registered server for a content id.
func (m *ServerMux) Lookup(contentID uint64) (*Server, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.servers[contentID]
	return s, ok
}

// Contents returns the registered content ids, sorted.
func (m *ServerMux) Contents() []uint64 {
	m.mu.Lock()
	ids := make([]uint64, 0, len(m.servers))
	for id := range m.servers {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves until Close.
func (m *ServerMux) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return m.Serve(ln)
}

// Serve accepts connections on ln until Close, each served on its own
// goroutine.
func (m *ServerMux) Serve(ln net.Listener) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ln.Close()
		return errors.New("peer: mux closed")
	}
	m.ln = ln
	m.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			m.mu.Lock()
			closed := m.closed
			m.mu.Unlock()
			if closed {
				m.wg.Wait()
				return nil
			}
			return err
		}
		// The Add must be ordered against Close's closed=true under the
		// lock: otherwise Close's Wait can pass on a zero counter while
		// this connection's session is still starting.
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			continue
		}
		m.wg.Add(1)
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		go func() {
			defer m.wg.Done()
			defer func() {
				m.mu.Lock()
				delete(m.conns, conn)
				m.mu.Unlock()
				conn.Close()
			}()
			_ = m.ServeConn(conn) // per-connection errors end that session only
		}()
	}
}

// Addr returns the listener address ("" before Serve).
func (m *ServerMux) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close stops the listener, closes every connection Serve accepted — a
// server does not wait out its clients' idle wires to shut down — and
// waits for their sessions to unwind. Registered servers are left as-is
// (they own no listener of their own here).
func (m *ServerMux) Close() error {
	m.mu.Lock()
	m.closed = true
	ln := m.ln
	conns := make([]net.Conn, 0, len(m.conns))
	for conn := range m.conns {
		conns = append(conns, conn)
	}
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	m.wg.Wait()
	return nil
}

// ServeConn serves one established connection: admission, then the
// fabric handshake, then every subchannel the peer opens until the
// connection dies. The opening frame must be a MUX_HELLO — anything
// else is answered with a clean ERROR and the connection closed.
// Exported so tests and in-process networks can serve over net.Pipe.
func (m *ServerMux) ServeConn(conn net.Conn) error {
	m.met.connections.Inc()
	key := remoteKey(conn)
	if m.penalties.Load().Banned(key) {
		m.met.banned.Inc()
		refuse(conn, m.timeout)
		return fmt.Errorf("peer: refused banned client %s", key)
	}
	// Over the cap: release the slot *before* answering, and answer under
	// a write deadline — a mute client that never reads the busy ERROR
	// must neither hold the admission counter elevated nor park this
	// goroutine forever (net.Pipe writes are fully synchronous; TCP
	// blocks once the socket buffer fills).
	n := m.active.Add(1)
	if max := m.maxConns.Load(); max > 0 && n > max {
		m.active.Add(-1)
		m.met.busy.Inc()
		writeRefusal(conn, protocol.EncodeError(protocol.ReasonBusy+" (inbound connection limit reached)"), m.timeout)
		return errors.New("peer: inbound connection limit reached")
	}
	defer m.active.Add(-1)
	fr := protocol.NewFrameReader(conn) // reads ahead: the wire reads on through it
	if m.timeout > 0 {
		conn.SetDeadline(time.Now().Add(m.timeout))
	}
	f, err := fr.Next()
	var mh protocol.MuxHello
	if err == nil {
		if mh, err = protocol.DecodeMuxHello(f); err != nil {
			// A whole frame, but not a MUX_HELLO (a pre-fabric content
			// HELLO, say): say so, then hang up.
			writeRefusal(conn, protocol.EncodeError(err.Error()), m.timeout)
		}
	}
	if err != nil {
		if errors.Is(err, protocol.ErrVersion) {
			writeRefusal(conn, protocol.EncodeErrorBadVersion(), m.timeout)
		}
		if errors.Is(err, protocol.ErrCorrupt) {
			m.met.malformed.Inc()
			m.penalties.Load().Penalize(key, PenaltyCorrupt)
		}
		return err
	}
	return m.serveWire(conn, fr, mh, key)
}

// route looks up the server for a content id, firing the lookup hook.
func (m *ServerMux) route(contentID uint64) (s *Server, pending, found bool) {
	m.mu.Lock()
	s, found = m.servers[contentID]
	pending = m.pending[contentID]
	hook := m.onLookup
	m.mu.Unlock()
	if hook != nil {
		hook(contentID, found)
	}
	return s, pending, found
}

// pendingMessage is the generic retryable refusal for a content this
// node is fetching but cannot serve yet.
func pendingMessage(contentID uint64) string {
	return fmt.Sprintf("content %#x pending (fetch in progress, not yet servable)", contentID)
}

// serveWire answers the fabric handshake and serves every subchannel
// the peer opens until the connection dies. Wire-level misbehavior
// (corrupt frames, protocol violations) is charged to the remote host
// through the node's penalty box.
func (m *ServerMux) serveWire(conn net.Conn, fr *protocol.FrameReader, mh protocol.MuxHello, key string) error {
	cfg := peermux.Config{
		Timeout:    m.timeout,
		ListenAddr: m.Addr(),
		Penalize: func(weight float64) {
			m.met.malformed.Inc()
			m.penalties.Load().Penalize(key, weight)
		},
	}
	w, err := peermux.Accept(conn, fr, mh, cfg, func(ch *peermux.Channel) {
		defer ch.Close()
		_ = m.serveChannel(ch) // per-channel errors end that channel only
	})
	if err != nil {
		return err
	}
	return w.Serve()
}

// serveChannel routes one fabric subchannel by its OPEN's content id,
// answering unknown and pending ids with the canonical reject
// vocabulary, admits it, and serves it with the registered Server on the
// mux's planes. A rejection reuses the canonical ERROR vocabulary, so
// dialers classify it like a wire-level refusal; a session that dies
// over a corrupt frame charges the client. It returns why the channel
// was refused or its session ended (nil: the receiver was done).
func (m *ServerMux) serveChannel(ch *peermux.Channel) error {
	m.met.connections.Inc()
	hello := ch.RemoteHello()
	s, pending, found := m.route(hello.ContentID)
	if !found {
		msg := fmt.Sprintf("%s %#x", protocol.ReasonUnknownContent, hello.ContentID)
		if pending {
			msg = pendingMessage(hello.ContentID)
		} else {
			m.met.rejected.Inc()
		}
		ch.Reject(msg)
		return errors.New("peer: " + msg)
	}
	key := ""
	if a := ch.RemoteAddr(); a != nil {
		key = addrHost(a.String())
	}
	// The wire's admission could only see the remote host, but the OPEN's
	// HELLO names the client's dialable listen address — the key the dial
	// plane and gossip admission ban under. When that address is verified
	// (same host as this connection) and banned, refuse the channel: a
	// peer banned under its dialable address must not keep being served
	// just by connecting inbound.
	if la := hello.ListenAddr; verifiedListenAddr(la, key) && m.penalties.Load().Banned(la) {
		m.served.rejected.Inc()
		ch.Reject(protocol.ReasonRefused + " (address penalized)")
		return fmt.Errorf("peer: refused banned client %s", la)
	}
	m.served.connections.Inc()
	err := s.serve(ch, hello, m)
	if err != nil {
		m.noteMalformed(key, hello.ListenAddr, err)
	}
	return err
}

// noteMalformed charges a client whose session died over a corrupt or
// malformed frame: always its remote host, and additionally the dialable
// listen address its HELLO advertised — but only when that address
// verifiably maps to this connection (same host), which is the hook that
// wires server-plane misbehavior into gossip admission. An unverified
// listen address is never charged: it is attacker-controlled, and
// charging it would hand any client an unauthenticated remote ban
// primitive against whichever peer it names. Non-corruption errors are
// ignored.
func (m *ServerMux) noteMalformed(remoteHost, listenAddr string, err error) {
	if !errors.Is(err, protocol.ErrCorrupt) {
		return
	}
	m.served.malformed.Inc()
	box := m.penalties.Load()
	box.Penalize(remoteHost, PenaltyCorrupt)
	if verifiedListenAddr(listenAddr, remoteHost) && listenAddr != remoteHost {
		box.Penalize(listenAddr, PenaltyCorrupt)
	}
}

// addrHost returns the host portion of a peer address: "host" for a
// "host:port" string, the whole string for bare endpoint names (pipe
// transports address peers by name, with no port). A name without a colon
// is returned as it is, not handed to net.SplitHostPort, which would
// build an error to say it has no port.
func addrHost(addr string) string {
	if !strings.Contains(addr, ":") {
		return addr
	}
	if host, _, err := net.SplitHostPort(addr); err == nil && host != "" {
		return host
	}
	return addr
}

// verifiedListenAddr reports whether a HELLO-advertised listen address
// provably maps to the connection it arrived on: its host must equal
// the connection's remote host. The advertised address is
// attacker-controlled — charging (or ban-checking) it without this
// check would let any client frame an innocent third party for its own
// misbehavior: connect, advertise the victim's address, send corrupt
// frames, repeat until the victim is banned node-wide.
func verifiedListenAddr(listenAddr, remoteHost string) bool {
	return listenAddr != "" && remoteHost != "" && addrHost(listenAddr) == remoteHost
}

// remoteKey is the penalty-box key for an inbound connection: the host
// portion of the remote address (ports are ephemeral per connection), or
// the whole string when it does not split as host:port. The remote host
// is the only identity an unauthenticated inbound connection actually
// proves, so inbound misbehavior is scored against it.
func remoteKey(conn net.Conn) string {
	addr := conn.RemoteAddr()
	if addr == nil {
		return ""
	}
	return addrHost(addr.String())
}

// writeRefusal writes an admission-refusal or handshake-failure ERROR
// under its own write deadline. These writes happen outside the session
// loop's rolling-deadline discipline, so without one a mute client that
// never reads (TCP once the socket buffer fills; net.Pipe immediately)
// would park the serving goroutine forever.
func writeRefusal(conn net.Conn, f protocol.Frame, timeout time.Duration) {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	protocol.WriteFrame(conn, f)
}

// refuse answers a connection the penalty box rejects with the canonical
// refused ERROR — the signal that lets the client end its session
// terminally instead of charging us for what reads like a dead peer and
// burning its redial budget. The client's opening frame is drained first
// (under the deadline, whatever it holds): both ends of an unbuffered
// in-process pipe would otherwise sit blocked on their opening writes
// until a timeout.
func refuse(conn net.Conn, timeout time.Duration) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout)) // bounds the read and the answer
	}
	protocol.ReadFrame(conn)
	protocol.WriteFrame(conn, protocol.EncodeErrorRefused())
}
