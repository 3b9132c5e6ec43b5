package peer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"icd/internal/bloom"
	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/protocol"
)

// ContentInfo identifies and parameterizes one piece of shared content.
// Every peer serving or fetching the same content must agree on it.
type ContentInfo struct {
	ID        uint64 // content identity (e.g. hash of the name)
	NumBlocks int
	BlockSize int
	OrigLen   int
	CodeSeed  uint64 // seed of the shared sparse parity-check code
}

func (ci ContentInfo) validate() error {
	if ci.NumBlocks < 1 || ci.BlockSize < 1 || ci.OrigLen < 1 {
		return fmt.Errorf("peer: invalid content info %+v", ci)
	}
	return nil
}

func (ci ContentInfo) hello(full bool, symbols int) protocol.Hello {
	return protocol.Hello{
		ContentID:   ci.ID,
		NumBlocks:   uint32(ci.NumBlocks),
		BlockSize:   uint32(ci.BlockSize),
		OrigLen:     uint64(ci.OrigLen),
		CodeSeed:    ci.CodeSeed,
		FullCopy:    full,
		Symbols:     uint64(symbols),
		SummaryMask: protocol.AllSummaryMask,
	}
}

// ServerStats exposes transfer counters.
type ServerStats struct {
	Connections int64
	SymbolsSent int64
	// Malformed counts sessions dropped over a corrupt or malformed
	// frame (the client is charged in the penalty box, if one is set).
	Malformed int64
	// Rejected counts channels refused because the opener's verified
	// listen address is banned (connection-level admission — remote-host
	// bans, the inbound cap — is the ServerMux's, see MuxStats).
	Rejected int64
}

// WorkingSetSource is the encoded-symbol working set a partial sender
// serves: an append-only log — an Orchestrator's mid-download, so a
// collaborating node serves symbols as it learns them (Figure 1(c)), or a
// fixed one (NewPartialServer).
type WorkingSetSource interface {
	// WorkingSet returns the log as it stands: distinct ids in the order
	// they became known, payloads index-aligned. The log only ever grows
	// at its end, so its length is its version and a returned prefix
	// stays valid and unchanged; the server never writes through it. O(1)
	// — the handshake and every REQUEST call it.
	WorkingSet() (ids []uint64, payloads [][]byte)
}

// Server is the symbol source for one content item: a full sender
// (fountain encoder over the content) or a partial sender (which sends
// the symbols of a working-set log — fixed, or the growing one of a fetch
// in progress — as they are, each session walking the log with a cursor).
// It owns no listener — a ServerMux accepts connections, runs the fabric
// handshake and hands each subchannel whose OPEN names this content to
// ServeChannel.
type Server struct {
	info    ContentInfo
	code    *fountain.Code
	blocks  [][]byte         // full sender
	src     WorkingSetSource // partial sender
	timeout time.Duration
	gossip  *Gossip // peer directory: learned from clients, relayed in batches

	penalties atomic.Pointer[PenaltyBox] // shared misbehavior box (nil = no penalty plane)

	streamSeed atomic.Uint64
	// met are the serve.* counters the hot paths add into and Stats()
	// reads: private to this server until SetObs resolves them from a
	// node's registry.
	met serveMetrics
}

// newServer validates info and builds what every mode shares.
func newServer(info ContentInfo) (*Server, error) {
	if err := info.validate(); err != nil {
		return nil, err
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		return nil, err
	}
	return &Server{info: info, code: code, timeout: 30 * time.Second, gossip: NewGossip(""), met: newServeMetrics(nil)}, nil
}

// NewFullServer builds a full sender from the content bytes themselves.
// It adopts content rather than copying it: the source blocks are views
// of it, and only a final block that needs zero padding is a copy
// (fountain.ViewBlocks). content must not be modified while the server
// serves it — the rule a decoder keeps for the symbols it is handed.
func NewFullServer(info ContentInfo, content []byte) (*Server, error) {
	s, err := newServer(info)
	if err != nil {
		return nil, err
	}
	if len(content) != info.OrigLen {
		return nil, fmt.Errorf("peer: content is %d bytes, info says %d", len(content), info.OrigLen)
	}
	blocks, _, err := fountain.ViewBlocks(content, info.BlockSize)
	if err != nil {
		return nil, err
	}
	if len(blocks) != info.NumBlocks {
		return nil, fmt.Errorf("peer: content splits into %d blocks, info says %d", len(blocks), info.NumBlocks)
	}
	s.blocks = blocks
	return s, nil
}

// NewPartialServer builds a partial sender from a working set of encoded
// symbols (id → payload), laid out as a fixed log. It adopts the payloads
// rather than copying them: the log keeps each as a view of the caller's
// buffer, so they must not be modified while the server serves them —
// the rule NewFullServer keeps for its content. The map itself is not
// kept.
func NewPartialServer(info ContentInfo, symbols map[uint64][]byte) (*Server, error) {
	if len(symbols) == 0 {
		return nil, errors.New("peer: partial server needs at least one symbol")
	}
	// Sessions walk the log by position: adopt lays it out in id order, not
	// map order, so one seed gives one stream.
	log := new(symbolLog)
	log.adopt(symbols)
	for pos, data := range log.payloads {
		if len(data) != info.BlockSize {
			return nil, fmt.Errorf("peer: symbol %d has %d bytes, want %d", log.ids[pos], len(data), info.BlockSize)
		}
	}
	return NewLiveServer(info, log)
}

// NewLiveServer builds a partial sender over a working-set log that may
// still be growing — the serving half of a collaborative node (Figure
// 1(c)): while the node's Orchestrator downloads, its live Server offers
// everything learned so far, each session's cursor taking in what the
// log gained at its next REQUEST. The log may be empty at start; sessions
// answer with empty batches until it grows.
func NewLiveServer(info ContentInfo, src WorkingSetSource) (*Server, error) {
	s, err := newServer(info)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("peer: live server needs a working-set source")
	}
	s.src = src
	return s, nil
}

// SetGossip replaces the server's peer directory with a shared one — a
// collaborative node passes the same Gossip to its Orchestrator
// (FetchOptions.Gossip) and its live Server, so addresses heard on
// either side flow into one directory. Call before the server is
// registered on a serving mux. Every server starts with a private
// directory, which is what lets a swarm bootstrapped from one seed
// address self-assemble: the seed learns each client's advertised listen
// address from its HELLO and relays the accumulated list in PEERS frames
// ahead of every symbol batch.
func (s *Server) SetGossip(g *Gossip) {
	if g != nil {
		s.gossip = g
	}
}

// SetPenalties installs the shared misbehavior penalty box: channels
// whose opener advertises a banned (and verified) listen address are
// refused, and clients that send corrupt frames are charged — on both
// their remote address and the listen address their HELLO advertised,
// so server-plane misbehavior feeds the same verdict gossip admission
// consults. A ServerMux shares its box into every registered server; a
// collaborative node shares one box between its Orchestrators
// (FetchOptions.Penalties) and its mux.
func (s *Server) SetPenalties(p *PenaltyBox) {
	if p != nil {
		s.penalties.Store(p)
	}
}

// SetObs attaches the node-wide observability registry: the server
// counts into the registry's shared serve.* metrics, so every server of
// a node adds into the same node totals (and Stats() reads those). Call
// before the server serves — ServerMux.Register does, before the content
// id becomes routable.
func (s *Server) SetObs(r *obs.Registry) {
	if r != nil {
		s.met = newServeMetrics(r)
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

// Full reports whether the server holds the complete content.
func (s *Server) Full() bool { return s.blocks != nil }

// Info returns the served content's parameters.
func (s *Server) Info() ContentInfo { return s.info }

// Stats returns a snapshot of the transfer counters. They are this
// server's own until a registry is attached; under a shared registry
// (SetObs, or registration on a mux that has one) they are the
// registry's serve.* totals — every server of the node together.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Connections: s.met.connections.Value(),
		SymbolsSent: s.met.symbolsSent.Value(),
		Malformed:   s.met.malformed.Value(),
		Rejected:    s.met.rejected.Value(),
	}
}

// noteMalformed charges a client whose connection died over a corrupt or
// malformed frame: always its remote host, and additionally the dialable
// listen address its HELLO advertised — but only when that address
// verifiably maps to this connection (same host), which is the hook that
// wires server-plane misbehavior into gossip admission. An unverified
// listen address is never charged: it is attacker-controlled, and
// charging it would hand any client an unauthenticated remote ban
// primitive against whichever peer it names. Non-corruption errors are
// ignored.
func (s *Server) noteMalformed(remoteHost, listenAddr string, err error) {
	if !errors.Is(err, protocol.ErrCorrupt) {
		return
	}
	s.met.malformed.Inc()
	box := s.penalties.Load()
	box.Penalize(remoteHost, PenaltyCorrupt)
	if verifiedListenAddr(listenAddr, remoteHost) && listenAddr != remoteHost {
		box.Penalize(listenAddr, PenaltyCorrupt)
	}
}

// ServeChannel serves one fabric subchannel routed to this server: the
// channel-level admission check, then the session loop until the
// receiver is done or the channel dies. A rejection reuses the
// canonical ERROR vocabulary, so dialers classify it like a wire-level
// refusal; a session that dies over a corrupt frame charges the client.
func (s *Server) ServeChannel(ch *peermux.Channel) error {
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
	clientHello := ch.RemoteHello()
	if la := clientHello.ListenAddr; verifiedListenAddr(la, key) && s.penalties.Load().Banned(la) {
		s.met.rejected.Inc()
		ch.Reject(protocol.ReasonRefused + " (address penalized)")
		return fmt.Errorf("peer: refused banned client %s", la)
	}
	s.met.connections.Inc()
	err := s.serve(ch, clientHello)
	if err != nil {
		s.noteMalformed(key, clientHello.ListenAddr, err)
	}
	return err
}

// serve owns one session: the answering hello (accepting the channel),
// the answer to the first round of requests the OPEN carried, then
// summary refreshes and the batched request loop. Frame payloads are
// valid until the next read (summaries are copied out by their Unmarshal
// step), so the loop allocates nothing per frame.
func (s *Server) serve(ch *peermux.Channel, clientHello protocol.Hello) error {
	// Gossip: a client announcing a dialable listen address becomes
	// an advertisement this server relays to everyone else it serves —
	// the mechanism that lets a single seed assemble a full mesh.
	clientAd := protocol.PeerAd{ContentID: clientHello.ContentID, Addr: clientHello.ListenAddr}
	if clientAd.Addr != "" {
		s.gossip.Learn(clientAd)
	}
	// The relay writes, ahead of a batch, any advertisements this
	// connection has not heard yet (receive loops handle PEERS between
	// symbol frames), and never echoes the client to itself. A directory
	// that has not changed since the last relay has nothing new to say, so
	// it is not asked.
	gossip := newRelay(clientAd)
	// The sender announces the content parameters and its summary
	// support; a partial one also its log's length, having read the
	// OPEN's summary, if any, to aim its cursor by (a malformed one
	// refuses the channel). It answers the OPEN's round behind its ACCEPT exactly as
	// it answers REQUEST frames: batches of Batch, each ending in its DONE,
	// in total no more than one channel window. A full sender, whose
	// symbols cannot be stale, answers as many as the OPEN asked for but
	// no more than cover what the receiver's decode still needs (whole
	// batches, at least one); a partial sender answers one, as a batch more
	// would be aimed by a summary gone stale. Its ACCEPT's Depth says how
	// many batches that is, which the receiver counts as in flight.
	const maxBatch = 1 << 16
	hello := s.info.hello(s.Full(), 0)
	// The session decodes the OPEN's summary and every refresh into one
	// filter, in place (readSummary), which missing reads; bits is its
	// width, which moves only when the receiver rebuilt it. The cursor aims
	// by it once there is one (aimBy), and by nothing before: everything is
	// missing.
	var filter bloom.Filter
	var bits int
	missing := func(id uint64) bool { return !filter.Contains(id) }
	var aimBy func(id uint64) bool
	var slice, of uint16
	if !s.Full() {
		ids, _ := s.src.WorkingSet()
		hello.Symbols = uint64(len(ids))
		if len(clientHello.Summary) > 0 {
			var err error
			if slice, of, err = readSummary(clientHello.Summary, &filter); err != nil {
				ch.Reject("bad summary")
				return err
			}
			aimBy, bits = missing, filter.M()
		}
	}
	n, total := min(int(clientHello.Batch), maxBatch), 0
	if n > 0 && clientHello.Depth > 0 {
		batches := 1
		if s.Full() {
			need := decodeNeed(s.info.NumBlocks)
			need -= int(min(clientHello.Symbols, uint64(need)))
			batches = min(int(clientHello.Depth), max(1, (need+n-1)/n))
		}
		total = min(batches*n, peermux.DefaultWindow)
		hello.Depth = uint16((total + n - 1) / n)
	}
	if err := ch.Accept(hello); err != nil {
		return err
	}

	// One send step answers the OPEN's round and every REQUEST, from a
	// full sender's encoder or a partial sender's cursor. Both seeds are
	// salted with this server's own address, so two fresh mirrors, which
	// number their sessions alike, send a receiver different streams.
	seed := s.streamSeed.Add(1)
	salt := addrSalt(ch.LocalAddr())
	var cur *cursor
	var encoder *fountain.Encoder
	if s.Full() {
		enc, err := fountain.NewEncoder(s.code, s.blocks, (seed^salt)*0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		encoder = enc
	} else {
		cur = newCursor(seed ^ s.info.CodeSeed ^ salt)
		ids, _ := s.src.WorkingSet()
		if _, fixed := s.src.(*symbolLog); !fixed {
			// A growing log, a fetch's working set, ends near what a
			// decode needs.
			cur.bound = decodeNeed(s.info.NumBlocks)
		}
		cur.aim(aimBy, slice, of, ids)
	}
	if total > 0 { // the OPEN's round, as the ACCEPT announced it
		if s.timeout > 0 {
			ch.SetDeadline(time.Now().Add(s.timeout))
		}
		if err := gossip.send(ch, s); err != nil {
			return err
		}
		for ; total > 0; total -= n {
			if err := s.send(ch, encoder, cur, min(n, total)); err != nil {
				return err
			}
		}
	}
	for {
		if s.timeout > 0 {
			ch.SetDeadline(time.Now().Add(s.timeout)) // rolling: bounds this read and the batch it triggers
		}
		f, err := ch.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // receiver hung up: stateless, nothing to clean
			}
			return err
		}
		switch f.Type {
		case protocol.TypeSummary:
			slice, of, err := readSummary(f.Payload, &filter)
			if err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad summary"))
				return err
			}
			rebuilt := filter.M() != bits
			bits = filter.M()
			if cur != nil { // a full sender's symbols are fresh: nothing to prune
				ids, _ := s.src.WorkingSet()
				cur.refresh(missing, rebuilt, slice, of, ids)
			}

		case protocol.TypePeers:
			if err := gossip.receive(f, s.gossip); err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad peers"))
				return err
			}

		case protocol.TypeRequest:
			n, err := protocol.DecodeRequest(f)
			if err != nil {
				return err
			}
			if err := gossip.send(ch, s); err != nil {
				return err
			}
			if err := s.send(ch, encoder, cur, int(min(n, maxBatch))); err != nil {
				return err
			}

		case protocol.TypeDone:
			return nil

		default:
			protocol.WriteFrame(ch, protocol.EncodeError("unexpected "+f.Type.String()))
			return fmt.Errorf("peer: unexpected frame %v", f.Type)
		}
	}
}

// readSummary parses a SUMMARY payload (the OPEN's or a refresh's) into
// its slice and, in place, its Bloom filter: filter's words are reused
// when they have the room, so a same-size refresh allocates nothing. It
// copies p. A summary that fails to parse leaves filter unusable, and the
// session ends.
func readSummary(p []byte, filter *bloom.Filter) (slice, of uint16, err error) {
	slice, of, blob, err := protocol.DecodeSummaryView(p)
	if err == nil {
		err = filter.UnmarshalBinary(blob)
	}
	return slice, of, err
}

// adGenerations is the directory's generation, which what appendAds
// appends moves with (relay.send).
func (s *Server) adGenerations() [2]uint64 { return [2]uint64{s.gossip.generation()} }

// appendAds appends what a serving session relays to its client: the
// directory's best for this content.
func (s *Server) appendAds(dst []protocol.PeerAd) []protocol.PeerAd {
	return s.gossip.AppendSnapshot(dst, s.info.ID, protocol.MaxPeerAds)
}

// send answers one batch of n: a full sender's from its encoder, a
// partial sender's off the log through the session's cursor.
func (s *Server) send(w io.Writer, enc *fountain.Encoder, cur *cursor, n int) error {
	if enc != nil {
		return s.sendFull(w, enc, n)
	}
	ids, payloads := s.src.WorkingSet()
	cur.extend(ids)
	return s.sendHeld(w, cur, ids, payloads, n)
}

// sendFull streams n fresh encoded symbols followed by DONE. Symbols are
// framed straight from the encoder's pooled payload buffers and released
// after the write, so the steady-state loop is allocation-free.
func (s *Server) sendFull(w io.Writer, enc *fountain.Encoder, n int) error {
	for i := 0; i < n; i++ {
		sym := enc.Next()
		err := protocol.WriteSymbol(w, sym.ID, sym.Data)
		enc.Release(sym)
		if err != nil {
			return err
		}
		s.met.symbolsSent.Inc()
	}
	return protocol.WriteFrame(w, protocol.EncodeDone())
}

// cursor is a partial sender's serving session: where it stands on the
// append-only log. Every log position it has considered is sent (written
// on this session, and never again: the channel is reliable, so all a
// refresh has to prune is what other senders delivered), queued, or
// withheld because the receiver's summary held its id when it was tested.
// A REQUEST tests only what the log gained since the last one (extend),
// and each queued id is tested again against the latest summary as it is
// about to be sent (sendHeld). The receiver keeps one filter per fetch
// and tops it up for each summary (Orchestrator.summaryLocked): a refresh
// of the same width only adds ids, so what it withholds anew is found at
// that send test, and nothing that was withheld comes back. Only a
// rebuilt filter or a moved slice re-tests everything unsent (aim). So an
// id one summary withheld as a false positive stays withheld until the
// receiver rebuilds its filter, which it does when its log outgrows the
// filter's sizing; the receiver refreshes only on what other senders
// delivered and on duplicates a fresher summary would have spared, so a
// stalled endgame would not draw new ones either, and a filter sized for
// the whole fetch has fewer to begin with. This is
// §6.1's "a partial sender can find symbols of guaranteed utility ...
// recoding is not generally necessary" taken at its word.
//
// The summary also names this sender's slice of the id space
// (protocol.InSlice): what it leaves missing queues in pending when its
// id is in the slice and in rest when not, and the cursor sends pending
// first. A receiver fetching from s partial senders hands each its own
// slice, so their first transmissions go to disjoint ids.
type cursor struct {
	// missing is the receiver's last summary: whether its Bloom filter
	// leaves id missing. nil: no summary, everything is missing.
	missing       func(id uint64) bool
	slice, slices uint16    // the summary's slice of the id space
	order         prng.Rand // the session's send order
	sent          []bool    // per log position considered: written on this session
	pending       queue     // unsent positions the summary leaves missing, in slice, in send order
	rest          queue     // the same, out of slice: sent once pending is empty

	// fresh is the positions to test, scratch reused across REQUESTs and
	// summaries.
	fresh []int
	// bound is the log length aim sizes sent, fresh and the queues for:
	// a log that grows within it costs no allocation.
	bound int
}

// queue is a FIFO of log positions over one array: taking advances head,
// so reset refills the same array — a re-aim allocates nothing.
type queue struct {
	pos  []int
	head int
}

// len is how many positions are queued.
func (q *queue) len() int { return len(q.pos) - q.head }

// push enqueues one position.
func (q *queue) push(pos int) { q.pos = append(q.pos, pos) }

// pop dequeues one position; the queue must not be empty.
func (q *queue) pop() int {
	q.head++
	return q.pos[q.head-1]
}

// reset empties the queue, keeping room for n positions.
func (q *queue) reset(n int) { q.pos, q.head = slices.Grow(q.pos[:0], n), 0 }

// newCursor starts a cursor whose send order follows seed, so that two
// sessions, or two senders, do not walk overlapping logs in step.
func newCursor(seed uint64) *cursor {
	c := new(cursor)
	c.order.Reseed(seed)
	return c
}

// addrSeed hashes an address into a PRNG seed: deterministic, so swarms
// are reproducible, yet distinct per address.
func addrSeed(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// addrSalt is the server's own address, as one connection sees it, for
// its sessions' seeds — a partial sender's send order, a full sender's
// fountain stream: every Server numbers its sessions from 1, and two
// fresh mirrors would otherwise hand a receiver the same symbols, every
// second arrival a duplicate (until the first refresh, for a partial
// sender; for good, for a full one). The same seed, address and session
// number still give the same schedule.
func addrSalt(a net.Addr) uint64 {
	if a == nil {
		return 0
	}
	return addrSeed(a.String())
}

// offer tests the ids at the given log positions against the summary
// and queues the ones it leaves missing behind what is queued, in the
// session's order, in pending or rest by the slice. It filters positions
// in place.
func (c *cursor) offer(ids []uint64, positions []int) {
	if c.missing != nil {
		kept := positions[:0]
		for _, pos := range positions {
			if c.missing(ids[pos]) {
				kept = append(kept, pos)
			}
		}
		positions = kept
	}
	c.order.ShuffleInts(positions)
	for _, pos := range positions {
		if protocol.InSlice(ids[pos], c.slice, c.slices) {
			c.pending.push(pos)
		} else {
			c.rest.push(pos)
		}
	}
}

// extend takes in what the log gained since the cursor last saw it: only
// the appended ids are tested. O(1) on a log that did not grow.
func (c *cursor) extend(ids []uint64) {
	seen := len(c.sent)
	if len(ids) == seen {
		return
	}
	c.sent = append(c.sent, make([]bool, len(ids)-seen)...)
	c.fresh = c.fresh[:0]
	for pos := seen; pos < len(ids); pos++ {
		c.fresh = append(c.fresh, pos)
	}
	c.offer(ids, c.fresh)
}

// aim installs a new summary and the slice of the id space it names, and
// re-derives pending and rest from every unsent position of the log
// against them.
// The scratch and the queues are sized here for the log, or its bound
// when that is larger, so neither a re-aim nor extend allocates while the
// log stays within it.
func (c *cursor) aim(missing func(id uint64) bool, slice, of uint16, ids []uint64) {
	c.missing, c.slice, c.slices = missing, slice, of
	n := len(ids)
	size := max(n, c.bound)
	c.sent = slices.Grow(c.sent, size-len(c.sent))
	c.sent = append(c.sent, make([]bool, n-len(c.sent))...)
	c.fresh = slices.Grow(c.fresh[:0], size)
	c.pending.reset(size)
	c.rest.reset(size)
	for pos, sent := range c.sent {
		if !sent {
			c.fresh = append(c.fresh, pos)
		}
	}
	c.offer(ids, c.fresh)
}

// refresh installs a summary the session decoded into the filter missing
// reads, and the slice it names. When the receiver rebuilt its filter
// (rebuilt: its width moved) or the slice moved, it re-aims in full; a
// refresh of the same width and slice only adds ids to the filter, so the
// cursor keeps its queues, takes in what the log gained, and leaves what
// the summary now holds to sendHeld's test.
func (c *cursor) refresh(missing func(id uint64) bool, rebuilt bool, slice, of uint16, ids []uint64) {
	if rebuilt || c.missing == nil || slice != c.slice || of != c.slices {
		c.aim(missing, slice, of, ids)
		return
	}
	c.missing = missing
	c.extend(ids)
}

// sendHeld answers one REQUEST from the cursor: up to n queued symbols,
// pending before rest, as plain SYMBOL frames, framed straight from the
// log's own payload buffers (no copy, no XOR, allocation-free like
// sendFull), then DONE. A queued id the latest summary holds is dropped
// unsent. A cursor with nothing to send answers the DONE alone — the
// empty batch.
func (s *Server) sendHeld(w io.Writer, c *cursor, ids []uint64, payloads [][]byte, n int) error {
	sent := 0
	for _, q := range [...]*queue{&c.pending, &c.rest} {
		for sent < n && q.len() > 0 {
			pos := q.pop()
			if c.missing != nil && !c.missing(ids[pos]) {
				continue
			}
			if err := protocol.WriteSymbol(w, ids[pos], payloads[pos]); err != nil {
				return err
			}
			c.sent[pos] = true
			s.met.symbolsSent.Inc()
			sent++
		}
	}
	if sent == 0 {
		s.met.dryBatches.Inc()
	}
	return protocol.WriteFrame(w, protocol.EncodeDone())
}
