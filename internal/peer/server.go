package peer

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/protocol"
	"icd/internal/recode"
	"icd/internal/strategy"
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
// recodes over: an append-only log — an Orchestrator's mid-download, so a
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

// fixedLog is the working set of a static partial sender.
type fixedLog struct {
	ids      []uint64
	payloads [][]byte
}

func (l *fixedLog) WorkingSet() ([]uint64, [][]byte) { return l.ids, l.payloads }

// Server is the symbol source for one content item: a full sender
// (fountain encoder over the content) or a partial sender (recoding over
// a working-set log — fixed, or the growing one of a fetch in progress).
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
func NewFullServer(info ContentInfo, content []byte) (*Server, error) {
	s, err := newServer(info)
	if err != nil {
		return nil, err
	}
	if len(content) != info.OrigLen {
		return nil, fmt.Errorf("peer: content is %d bytes, info says %d", len(content), info.OrigLen)
	}
	blocks, _, err := fountain.SplitIntoBlocks(content, info.BlockSize)
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
// symbols (id → payload), snapshotted into a fixed log.
func NewPartialServer(info ContentInfo, symbols map[uint64][]byte) (*Server, error) {
	if len(symbols) == 0 {
		return nil, errors.New("peer: partial server needs at least one symbol")
	}
	// Recoders sample the log by position: lay it out in id order, not
	// map order, so one seed gives one recoded stream.
	log := &fixedLog{ids: slices.Sorted(maps.Keys(symbols))}
	for _, id := range log.ids {
		data := symbols[id]
		if len(data) != info.BlockSize {
			return nil, fmt.Errorf("peer: symbol %d has %d bytes, want %d", id, len(data), info.BlockSize)
		}
		log.payloads = append(log.payloads, append([]byte(nil), data...))
	}
	return NewLiveServer(info, log)
}

// NewLiveServer builds a partial sender over a working-set log that may
// still be growing — the serving half of a collaborative node (Figure
// 1(c)): while the node's Orchestrator downloads, its live Server offers
// everything learned so far, re-deriving each session's recoding domain
// whenever the log grows or a summary refresh arrives. The log may be
// empty at start; sessions answer with empty batches until it grows.
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
// transports address peers by name, with no port).
func addrHost(addr string) string {
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

// serve owns one session: the answering HELLO (accepting the channel),
// summary handling, and the batched request loop. Frame payloads are
// valid until the next read (summaries are copied out by their
// Unmarshal step), so the loop allocates nothing per frame.
func (s *Server) serve(ch *peermux.Channel, clientHello protocol.Hello) error {
	// Gossip: a client announcing a dialable listen address becomes
	// an advertisement this server relays to everyone else it serves —
	// the mechanism that lets a single seed assemble a full mesh.
	clientAd := protocol.PeerAd{ContentID: clientHello.ContentID, Addr: clientHello.ListenAddr}
	if clientAd.Addr != "" {
		s.gossip.Learn(clientAd)
	}
	sentAds := map[protocol.PeerAd]bool{clientAd: true} // never echo the client to itself
	// The sender announces the content parameters and its summary
	// support.
	heldLen := 0
	if !s.Full() {
		ids, _ := s.src.WorkingSet()
		heldLen = len(ids)
	}
	if err := ch.Accept(s.info.hello(s.Full(), heldLen)); err != nil {
		return err
	}

	// Session loop: a summary (setup or refresh) fixes the recoding
	// domain until the next one or until the log grows, then batched
	// requests stream symbols. planned is the log length recoders was
	// derived at (−1: no plan stands); a plan with nothing useful in it is
	// a nil recoders, remembered like any other, so the REQUESTs of a
	// pipeline do not each re-plan the same empty answer.
	var summary *strategy.ReceivedSummary
	var recoders *sessionRecoders
	planned := -1
	var encoder *fountain.Encoder
	if s.Full() {
		enc, err := fountain.NewEncoder(s.code, s.blocks, s.streamSeed.Add(1)*0x9e3779b97f4a7c15)
		if err != nil {
			return err
		}
		encoder = enc
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
		case protocol.TypeSummary, protocol.TypeSummaryRefresh:
			method, blob, err := protocol.DecodeSummaryView(f)
			if err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad summary"))
				return err
			}
			summary, err = strategy.ParseSummary(method, blob)
			if err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad summary"))
				return err
			}
			planned = -1 // rebuild the recoding domain lazily

		case protocol.TypePeers:
			ads, err := protocol.DecodePeers(f)
			if err != nil {
				protocol.WriteFrame(ch, protocol.EncodeError("bad peers"))
				return err
			}
			for _, ad := range ads {
				s.gossip.Learn(ad)
			}

		case protocol.TypeRequest:
			n, err := protocol.DecodeRequest(f)
			if err != nil {
				return err
			}
			const maxBatch = 1 << 16
			if n > maxBatch {
				n = maxBatch
			}
			// Relay any advertisements this connection has not heard yet
			// ahead of the batch (receive loops handle PEERS between
			// symbol frames).
			if err := s.relayGossip(ch, sentAds); err != nil {
				return err
			}
			if s.Full() {
				if err := s.sendFull(ch, encoder, int(n)); err != nil {
					return err
				}
				continue
			}
			// A log that grew since the last domain build has new symbols
			// to offer: re-derive the domain.
			if ids, payloads := s.src.WorkingSet(); len(ids) != planned {
				recoders, planned = s.buildRecoders(summary, ids, payloads), len(ids)
			}
			if recoders == nil {
				protocol.WriteFrame(ch, protocol.EncodeDone())
				continue // nothing useful to offer; empty batch
			}
			if err := s.sendRecoded(ch, recoders, int(n)); err != nil {
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

// relayGossip writes one PEERS frame carrying every directory entry not
// yet sent on this connection (no news, no frame).
func (s *Server) relayGossip(conn io.Writer, sent map[protocol.PeerAd]bool) error {
	var fresh []protocol.PeerAd
	for _, ad := range s.gossip.Snapshot(s.info.ID, protocol.MaxPeerAds) {
		if !sent[ad] {
			sent[ad] = true
			fresh = append(fresh, ad)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	return protocol.WriteFrame(conn, protocol.EncodePeers(fresh))
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

// sessionRecoders pair two recoding streams over the same domain: an
// *informed* stream driven by the receiver's summary — coverage-adaptive
// degrees when the summary names the missing symbols (Bloom/ART, so
// early transmissions are degree-1 and immediately useful, §5.4.2's
// dynamic degree rule), min-wise-scaled degrees when only a containment
// estimate is available (§4) — and an oblivious soliton stream which
// alone guarantees the receiver can eventually decode the *entire*
// domain (complete LT recovery at a small constant overhead).
// Interleaving gives linear early progress without a stalled tail, with
// no per-packet feedback from the receiver.
type sessionRecoders struct {
	informed  *recode.Recoder
	oblivious *recode.Recoder
	policy    recode.DegreePolicy // of the informed stream
	contain   float64             // MinwiseScaled containment estimate
	turn      int
}

func (sr *sessionRecoders) next() (recode.Symbol, *recode.Recoder) {
	sr.turn++
	if sr.turn%2 == 0 {
		return sr.informed.Next(sr.policy, sr.contain), sr.informed
	}
	return sr.oblivious.Next(recode.Oblivious, 0), sr.oblivious
}

// buildRecoders constructs the partial sender's recoding streams from
// the receiver's negotiated summary over the log as it stands: the
// summary's sender plan picks the domain (missing symbols for Bloom/ART,
// the whole log for sketches) and the informed stream's degree policy.
// With no summary the whole log is the domain. Both streams share one
// domain. It returns nil when there is nothing useful to recode over.
func (s *Server) buildRecoders(summary *strategy.ReceivedSummary, ids []uint64, payloads [][]byte) *sessionRecoders {
	if len(ids) == 0 {
		return nil // nothing held yet
	}
	sr := &sessionRecoders{policy: recode.CoverageAdaptive}
	if summary != nil {
		plan, err := summary.Plan(ids)
		if err != nil {
			return nil // includes ErrNothingUseful
		}
		sr.policy, sr.contain = plan.Policy, plan.Containment
		if len(plan.Keep) < len(ids) {
			kept, keptPayloads := make([]uint64, len(plan.Keep)), make([][]byte, len(plan.Keep))
			for i, pos := range plan.Keep {
				kept[i], keptPayloads[i] = ids[pos], payloads[pos]
			}
			ids, payloads = kept, keptPayloads
		}
	}
	var err error
	sr.informed, err = recode.NewRecoderOver(prng.New(s.streamSeed.Add(1)^s.info.CodeSeed), ids, payloads, recode.Options{})
	if err != nil {
		return nil
	}
	sr.oblivious, err = recode.NewRecoderOver(prng.New(s.streamSeed.Add(1)^s.info.CodeSeed), ids, payloads, recode.Options{})
	if err != nil {
		return nil
	}
	return sr
}

// sendRecoded streams n recoded symbols followed by DONE. Symbols are
// framed straight from the recoder's pooled buffers and released after
// the write, so the steady-state loop is allocation-free.
func (s *Server) sendRecoded(w io.Writer, sr *sessionRecoders, n int) error {
	for i := 0; i < n; i++ {
		sym, owner := sr.next()
		err := protocol.WriteRecoded(w, sym.IDs, sym.Data)
		owner.Release(sym)
		if err != nil {
			return err
		}
		s.met.symbolsSent.Inc()
	}
	return protocol.WriteFrame(w, protocol.EncodeDone())
}
