package peer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"icd/internal/bloom"
	"icd/internal/fountain"
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
// A Server is only its content and what it has encoded of it: a full
// sender keeps one cached prefix of one fountain stream, recorded by one
// session and replayed from memory once that session ends (prefix). It
// owns no listener, no peer directory, no penalty box and no counters. A
// ServerMux accepts connections, runs the fabric handshake and admission,
// and serves each subchannel whose OPEN names this content with the
// node's planes (serve).
type Server struct {
	info       ContentInfo
	code       *fountain.Code
	blocks     [][]byte         // full sender
	src        WorkingSetSource // partial sender
	streamSeed atomic.Uint64
	cache      prefix // full sender
}

// prefix is a full sender's cached stream prefix: the first symbols of
// one fountain stream, ids and payloads in the order they were sent,
// encoded once and replayed from memory. It has one life. A content's
// first receiver that opens holding nothing (Hello.Symbols == 0) is sent
// a fresh stream and nothing is cached: a content may never be fetched
// again, and a sender whose contents are each fetched once would get only
// the copying from a cache. The second records: its session sends a
// fresh stream of its own and appends each symbol it sends, up to
// prefixLimit. When that session ends, however it ends, the prefix closes
// as it stands; a cached payload is never written again, nor handed back
// to an encoder's freelist. §2.3's full sender is a digital fountain, any
// of whose streams serves any one receiver; but receivers that exchange
// symbols need different streams, since a relay that holds prefix ids
// has nothing to give a receiver being replayed them. So a closed prefix
// is replayed only where it went: to a receiver
// that opens holding nothing and announces the listen address the
// recorder's receiver announced (owner) — that one node fetching again
// after it dropped the content, or, when the recorder's receiver
// announced none, any receiver that announces none, which cannot be
// dialed and so relays nothing. Any number of them read it at once, each
// continuing on a fresh stream of its own past it. Every other session
// encodes a fresh stream, as every session did before: one that holds
// symbols (a redial, a fetch that began with a working set), which could
// hold prefix ids already and whose fresh stream keeps migration
// stateless, and one served while the prefix is being recorded. Its price
// is memory: at most prefixLimit payloads (twice the content, what
// CacheBound charges), typically what one fetch of the stream was sent,
// about 1.1× it.
type prefix struct {
	// empties counts the sessions whose receiver opened empty; the second
	// records.
	empties atomic.Int64
	// closed is set once, when the recorder's session ends; the fields
	// below are the recorder's until then, and from then on are read by
	// any number of sessions at once.
	closed    atomic.Bool
	symbolLog        // the prefix: ids and slab payloads, no index
	owner     string // the listen address the recorder's receiver announced
	// decoded is how many of the prefix's symbols, in order, a decode of
	// the content takes (all of them, when they do not suffice), found when
	// it closes. It sizes a replay's first round: the prefix also holds
	// what the recorder sent past that point, the answers to requests in
	// flight when its receiver decoded, which a repeat sent them in its
	// first round would only pay for on the wire behind requests of its
	// own.
	decoded int
}

// take reports whether a session whose OPEN is hello is replayed the
// closed prefix, or records it and calls Server.close when it ends.
func (p *prefix) take(hello protocol.Hello) (replay, record bool) {
	if hello.Symbols != 0 {
		return false, false
	}
	switch n := p.empties.Add(1); {
	case n == 2:
		p.owner = hello.ListenAddr
		return false, true
	case n > 2 && p.closed.Load():
		return p.owner == hello.ListenAddr, false
	}
	return false, false
}

// close ends the session that records s's prefix: the prefix closes as it
// stands, its decode point found first.
func (s *Server) close() {
	p := &s.cache
	p.decoded = s.decodesAt(p.ids)
	p.closed.Store(true)
}

// decodesAt is how many of the given ids, in order, a decode of the
// content takes, or all of them when they do not suffice. Which symbols
// decode the content is a matter of the code's graph alone — a block is
// peeled when a symbol's other neighbors are known, whatever the payloads
// — so it decodes one-byte stand-ins, at a sliver of a real decode's XOR.
func (s *Server) decodesAt(ids []uint64) int {
	dec, err := fountain.NewDecoder(s.code, 1)
	if err != nil {
		return len(ids)
	}
	var standIn [1]byte
	for i, id := range ids {
		if _, err := dec.AddSymbol(fountain.Symbol{ID: id, Data: standIn[:]}); err != nil {
			break
		}
		if dec.Done() {
			return i + 1
		}
	}
	return len(ids)
}

// prefixLimit is the most symbols a prefix of a k-block content holds:
// twice the content, and at least what a decode takes.
func prefixLimit(k int) int { return max(2*k, decodeNeed(k)) }

// CacheBound is the most payload bytes a full sender's cached stream
// prefix holds, prefixLimit payloads (the slabs that hold them round it
// up by about one slab), and 0 for a partial sender: what a store charges
// a full replica beside its content.
func (s *Server) CacheBound() int64 {
	if !s.Full() {
		return 0
	}
	return int64(prefixLimit(s.info.NumBlocks)) * int64(s.info.BlockSize)
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
	return &Server{info: info, code: code}, nil
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

// Full reports whether the server holds the complete content.
func (s *Server) Full() bool { return s.blocks != nil }

// Info returns the served content's parameters.
func (s *Server) Info() ContentInfo { return s.info }

// serve owns one session: the answering hello (accepting the channel),
// the answer to the first round of requests the OPEN carried, then
// summary refreshes and the batched request loop, on the planes of the
// ServerMux that routed the channel. Frame payloads are valid until the
// next read (summaries are copied out by their Unmarshal step), so the
// loop allocates nothing per frame.
func (s *Server) serve(ch *peermux.Channel, clientHello protocol.Hello, m *ServerMux) error {
	// Gossip: a client announcing a dialable listen address becomes
	// an advertisement the node relays to everyone else it serves —
	// the mechanism that lets a single seed assemble a full mesh.
	clientAd := protocol.PeerAd{ContentID: clientHello.ContentID, Addr: clientHello.ListenAddr}
	if clientAd.Addr != "" {
		m.gossip.Learn(clientAd)
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
	// in total no more than DefaultWindow symbols. A full sender, whose
	// symbols cannot be stale, answers as many as the OPEN asked for but
	// no more than cover what the receiver's decode still needs (whole
	// batches, at least one), or its replayed prefix up to its decode
	// point if that is longer; a partial sender answers one, as a batch more
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
	// A full sender's session is replayed the cached prefix when its
	// receiver may be, or records it (prefix). A round that carries the
	// prefix up to its decode point decodes in the first round trip however
	// unlucky that stream was; sized by decodeNeed alone, an unlucky stream
	// would take two on every repeat.
	var st *stream
	if s.Full() {
		st = &stream{seed: s.streamSeed.Add(1) ^ addrSalt(ch.LocalAddr())}
		replay, record := s.cache.take(clientHello)
		if replay {
			st.replay = &s.cache
		}
		if record {
			st.record = &s.cache
			defer s.close()
		}
	}
	n, total := min(int(clientHello.Batch), maxBatch), 0
	if n > 0 && clientHello.Depth > 0 {
		batches := 1
		if s.Full() {
			need := decodeNeed(s.info.NumBlocks)
			need -= int(min(clientHello.Symbols, uint64(need)))
			if st.replay != nil {
				need = max(need, st.replay.decoded)
			}
			batches = min(int(clientHello.Depth), max(1, (need+n-1)/n))
		}
		total = min(batches*n, peermux.DefaultWindow)
		hello.Depth = uint16((total + n - 1) / n)
	}
	if err := ch.Accept(hello); err != nil {
		return err
	}

	// One send step answers the OPEN's round and every REQUEST, from a
	// full sender's stream or a partial sender's cursor. Both seeds are
	// salted with this server's own address, so two fresh mirrors, which
	// number their sessions alike, send a receiver different streams.
	var cur *cursor
	if !s.Full() {
		cur = newCursor(s.streamSeed.Add(1) ^ s.info.CodeSeed ^ addrSalt(ch.LocalAddr()))
		ids, _ := s.src.WorkingSet()
		if _, fixed := s.src.(*symbolLog); !fixed {
			// A growing log, a fetch's working set, ends near what a
			// decode needs.
			cur.bound = decodeNeed(s.info.NumBlocks)
		}
		cur.aim(aimBy, slice, of, ids)
	}
	if total > 0 { // the OPEN's round, as the ACCEPT announced it
		if m.timeout > 0 {
			ch.SetDeadline(time.Now().Add(m.timeout))
		}
		if err := gossip.send(ch, m.gossip, s.info.ID); err != nil {
			return err
		}
		for ; total > 0; total -= n {
			if err := s.send(ch, &m.served, st, cur, min(n, total)); err != nil {
				return err
			}
		}
	}
	for {
		if m.timeout > 0 {
			ch.SetDeadline(time.Now().Add(m.timeout)) // rolling: bounds this read and the batch it triggers
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
			if err := gossip.receive(f, m.gossip); err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad peers"))
				return err
			}

		case protocol.TypeRequest:
			n, err := protocol.DecodeRequest(f)
			if err != nil {
				return err
			}
			if err := gossip.send(ch, m.gossip, s.info.ID); err != nil {
				return err
			}
			if err := s.send(ch, &m.served, st, cur, int(min(n, maxBatch))); err != nil {
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

// send answers one batch of n: a full sender's from its stream, a
// partial sender's off the log through the session's cursor, counted in
// met.
func (s *Server) send(w io.Writer, met *serveMetrics, st *stream, cur *cursor, n int) error {
	if st != nil {
		return s.sendFull(w, met, st, n)
	}
	ids, payloads := s.src.WorkingSet()
	cur.extend(ids)
	return sendHeld(w, met, cur, ids, payloads, n)
}

// stream is a full sender's session: the closed prefix it replays, when
// it is replayed one, then its encoder's symbols.
type stream struct {
	seed   uint64            // the session's stream seed, salted with the server's address
	replay *prefix           // the closed prefix the session replays, or nil
	record *prefix           // the prefix the session records, or nil
	pos    int               // the next prefix position to replay
	enc    *fountain.Encoder // the session's fresh stream; nil until the first symbol past the prefix
}

// sendFull streams n symbols followed by DONE: the replayed prefix's from
// memory, then fresh ones from the session's own encoder, each appended
// to the prefix it records while that has room. A fresh symbol is framed
// straight from the encoder's pooled payload buffer and released after
// the write (an appended one is copied into the prefix's slab first), so
// the steady-state loop is allocation-free.
func (s *Server) sendFull(w io.Writer, met *serveMetrics, st *stream, n int) error {
	for i := 0; i < n; i++ {
		if c := st.replay; c != nil && st.pos < len(c.ids) {
			if err := protocol.WriteSymbol(w, c.ids[st.pos], c.payloads[st.pos]); err != nil {
				return err
			}
			st.pos++
			met.symbolsSent.Inc()
			continue
		}
		if st.enc == nil {
			enc, err := fountain.NewEncoder(s.code, s.blocks, st.seed*0x9e3779b97f4a7c15)
			if err != nil {
				return err
			}
			st.enc = enc
		}
		sym := st.enc.Next()
		met.symbolsEncoded.Inc()
		err := protocol.WriteSymbol(w, sym.ID, sym.Data)
		if c := st.record; err == nil && c != nil && len(c.ids) < prefixLimit(s.info.NumBlocks) {
			c.push(sym.ID, sym.Data)
		}
		st.enc.Release(sym)
		if err != nil {
			return err
		}
		met.symbolsSent.Inc()
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
// sendFull's), then DONE. A queued id the latest summary holds is dropped
// unsent. A cursor with nothing to send answers the DONE alone — the
// empty batch.
func sendHeld(w io.Writer, met *serveMetrics, c *cursor, ids []uint64, payloads [][]byte, n int) error {
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
			met.symbolsSent.Inc()
			sent++
		}
	}
	if sent == 0 {
		met.dryBatches.Inc()
	}
	return protocol.WriteFrame(w, protocol.EncodeDone())
}
