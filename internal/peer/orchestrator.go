package peer

// orchestrator.go is the control plane of a download: the Orchestrator
// owns the shared working set (a symbolLog), the fountain decoder, and
// the set of live sessions, and it is the only component that mutates
// any of them. Sessions (session.go) are added and dropped while the
// transfer runs — the paper's §2.1 adaptivity: peers join late, die
// mid-batch, get evicted for contributing nothing, and get re-ranked by
// measured utility when the peer cap is hit. The fetch has one lifetime,
// a context: sessions hold children of it, so completion, a decode error
// or the caller's cancel ends them all through one cancel, and eviction
// ends one through its own.
//
// The receive side is fold → peel, and there is one hop from the wire to
// the working set: the session that read a SYMBOL frame off its channel
// calls fold, which puts the arrival into the working set under o.mu (an
// index lookup and, for a new id, one payload copy into the log's current
// slab — no XOR, and no allocation but a new slab's, and slabs double up
// to 1 MiB), charges the session and stores Progress — so every arrival is
// classified as useful or a duplicate at the fold, against the working set
// as it stands, and progress is exact the moment a batch retires. The peel
// stage (peel.go), one goroutine that owns the fountain.Decoder, follows
// the log with a cursor. The working set is what summaries, Progress and a
// co-located live Server read, so it must track arrivals: the fold never
// waits behind the peel stage's XOR work until the working set holds n
// symbols and completion becomes possible. All of them read it the same
// way — an O(1) prefix of the append-only log (WorkingSet), taken under
// o.mu and read outside it — and its length, which Progress mirrors in an
// atomic, is its version.
//
// Buffer ownership: the frame a session folds is a view into its
// channel's queue buffer, valid until the session reads the next one.
// The fold copies a new symbol's payload out of it into the log's
// current slab (the payload, a view of the slab clipped to its own
// length, finally surfaces in FetchResult.Held), and nothing of a
// duplicate. There is no receive pool and nothing to release. A
// payload the working set holds is never written again: the peel stage
// reads it outside o.mu, a live Server's sessions frame it onto their
// wires from there, and the fountain decoder keeps it by reference —
// it copies no payload, and reads one only to write the block it
// resolves into its content buffer, which becomes FetchResult.Data
// without a final join (Decoder.Content).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"icd/internal/bloom"
	"icd/internal/fountain"
	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/protocol"
)

// Orchestrator runs one adaptive download: it owns the shared decoders
// and manages sessions dynamically. Build one with NewOrchestrator, add
// peers (up front via Run's addrs or live via AddPeer), and collect the
// result from Run. All exported methods are safe for concurrent use.
type Orchestrator struct {
	contentID uint64
	opts      FetchOptions

	// ctx is the fetch's one lifetime: every session's context is its
	// child, and finish — completion, a decode error, or the end of the
	// context Run was given — cancels it, which is what unwinds them.
	ctx    context.Context
	finish context.CancelFunc

	infoReady chan struct{} // closed when the first handshake fixes ContentInfo
	idle      chan struct{} // closed when the last session exited: nothing folds any more
	peel      *peelStage    // decodes the working set's log; runs while Run does

	// gossip is the node-wide peer directory (nil when FetchOptions.
	// DisableGossip): sessions and a co-located live Server feed
	// advertisements into it, and its subscription drives the
	// considerDiscovered admission path below.
	gossip *Gossip

	// penalties is the misbehavior penalty box (never nil: a private box
	// is created when FetchOptions.Penalties is not shared); banned
	// addresses are refused by every admission path below.
	penalties *PenaltyBox
	// fabric carries every session as a subchannel of one wire per peer:
	// FetchOptions.Fabric when the caller shares one (a node's), else a
	// private fabric over FetchOptions.Dial that Run closes.
	fabric *peermux.Fabric

	// obs is the node-wide observability registry (nil when the caller
	// did not wire one; Trace on nil drops) and met the prebuilt metric
	// handles hot paths add into — always functional, registered or not.
	obs *obs.Registry
	met fetchMetrics

	mu            sync.Mutex
	log           symbolLog // the working set
	info          ContentInfo
	maxPeers      int                 // live session cap (0 = unlimited); opts.MaxPeers is the start value, SetMaxPeers rebudgets
	sessions      map[string]*session // live sessions by address (sessionsGen moves with it)
	stats         []*PeerStats        // every session ever started, result order
	active        int                 // session goroutines still running (plus holds)
	feedersClosed bool                // idle closed: no new sessions
	running       bool                // Run in progress (one Run per Orchestrator)
	attempted     map[string]bool     // addresses ever given a session (no gossip re-dials)
	candidates    []gossipCandidate   // discovered addresses awaiting a free slot
	candidateSeq  int                 // discovery-order stamp for candidate tie-breaks
	dialFails     map[string]int      // requeue budget spent per never-reached discovery
	// partials are the live sessions to partial senders, and those whose
	// OPEN carries a summary until an ACCEPT says full, in join order: the
	// i-th hands its sender slice i of len(partials) of the id space
	// (sliceOf), so the senders start on disjoint ids. One started while
	// the fetch holds symbols joins at its start, so sessions started
	// together name disjoint slices in their first OPENs.
	partials []*session
	// filter is the fetch's one Bloom filter over the log, built at the
	// first summary and topped up at each one after (summaryLocked):
	// log.ids[:filtered] are in it, and it is sized for sizedFor ids.
	filter   *bloom.Filter
	filtered int
	sizedFor int

	// asked is the fetch's request budget in use: the symbols its sessions
	// requested and have not yet retired, summed over every session. A
	// batch retires at its DONE, and whatever a connection still owed
	// when it ends retires with it (session.owed). A session asks for
	// more only while asked stays within need (claim), so the fetch as a
	// whole asks for about what its decode still needs, however many
	// senders it spreads that over.
	asked int
	// blind is the session whose OPEN asked for a round before any ACCEPT
	// told the fetch k: OPENs concurrent with it ask for nothing, and the
	// first handshake, which tells the fetch k, claims for it what its
	// sender would answer until its own ACCEPT settles what it will.
	blind *session

	// sessionsGen counts, under mu, the changes to sessions: a session's
	// PEERS relay (gossipAdverts) collects again only once it or the
	// directory's generation moved.
	sessionsGen atomic.Uint64

	// progress counts the distinct encoded symbols in the working set;
	// sessions use it to notice that their batches stopped helping (a batch
	// of duplicates is as useless as an empty one).
	progress atomic.Int64

	// chanWin is the per-session window for the sessions' subchannels,
	// in symbol frames (0 = peermux.DefaultWindow). New channels open at it;
	// SetChannelWindow moves it and resizes every live channel — a node's
	// bandwidth knob.
	chanWin atomic.Int64
}

// NewOrchestrator prepares the engine for one piece of content. Sessions
// start when AddPeer is called; decoding happens inside Run.
func NewOrchestrator(contentID uint64, opts FetchOptions) *Orchestrator {
	opts = opts.withDefaults()
	o := &Orchestrator{
		contentID: contentID,
		opts:      opts,
		infoReady: make(chan struct{}),
		idle:      make(chan struct{}),
		maxPeers:  opts.MaxPeers,
		sessions:  make(map[string]*session),
		attempted: make(map[string]bool),
		dialFails: make(map[string]int),
	}
	// Sessions may start (AddPeer) before Run brings the caller's context.
	o.ctx, o.finish = context.WithCancel(context.Background())
	context.AfterFunc(o.ctx, o.wakeSessions)
	o.peel = newPeelStage(o.WorkingSet, o.finish)
	o.chanWin.Store(int64(opts.ChannelWindow))
	o.obs = opts.Obs
	o.met = newFetchMetrics(opts.Obs)
	o.penalties = opts.Penalties
	if o.penalties == nil {
		o.penalties = NewPenaltyBox()
	}
	o.fabric = opts.Fabric
	if o.fabric == nil {
		o.fabric = peermux.NewFabric(opts.Dial, peermux.Config{
			Timeout:    opts.Timeout,
			ListenAddr: opts.AdvertiseAddr,
			Obs:        opts.Obs,
		})
	}
	if !opts.DisableGossip {
		o.gossip = opts.Gossip
		if o.gossip == nil {
			o.gossip = NewGossip(opts.AdvertiseAddr)
		}
		// Every advertisement the node learns — through any session or a
		// co-located live Server — flows into the admission path.
		o.gossip.subscribe(func(ad protocol.PeerAd) { o.considerDiscovered(ad) })
	}
	// The log adopts the resumed working set in id order, not map order: it
	// keeps arrival order, which a live Server's sessions walk by position.
	o.log.adopt(opts.Initial)
	o.progress.Store(int64(len(o.log.ids)))
	// The resumed working set is the stage's first input.
	o.peel.announce(len(o.log.ids), false)
	return o
}

// gossipCandidate is one discovered address the engine could not admit
// immediately (MaxPeers live already); the pool is ranked at promotion
// time — fresh discoveries first, then gossip mention count, then
// discovery order. A non-zero fails marks a requeued address that
// already burned dial attempts: it ranks below every fresh discovery.
type gossipCandidate struct {
	ad    protocol.PeerAd
	seq   int
	fails int // dial attempts already spent on this address
}

// wakeSessions expires every live session's channel deadline once the
// fetch ended, so a read parked on a quiet sender returns and its session
// winds down: one hook per fetch, not one per connection attempt.
func (o *Orchestrator) wakeSessions() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.sessions {
		s.wake()
	}
}

// hold keeps the feeder barrier open while no session is running yet
// (Run's initial AddPeer burst would otherwise race the first session's
// exit closing idle).
func (o *Orchestrator) hold() {
	o.mu.Lock()
	o.active++
	o.mu.Unlock()
}

// unhold releases a hold, closing the feeder barrier if it was the last.
func (o *Orchestrator) unhold() { o.sessionExited(nil) }

// sessionExited retires a session goroutine (or a hold, when s is nil).
// A freed slot promotes the best-ranked discovery candidate, if any;
// otherwise the last one out closes idle, which lets Run conclude the
// transfer (incomplete: "peers exhausted").
func (o *Orchestrator) sessionExited(s *session) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s != nil && o.sessions[s.addr] == s {
		delete(o.sessions, s.addr)
		o.sessionsGen.Add(1)
	}
	o.met.live.Set(int64(len(o.sessions)))
	o.active--
	if s != nil {
		o.maybeRequeueLocked(s)
	}
	if !o.feedersClosed && o.ctx.Err() == nil {
		o.promoteCandidateLocked()
	}
	if o.active == 0 && !o.feedersClosed {
		o.feedersClosed = true
		close(o.idle)
	}
}

// AddPeer connects a new sender mid-transfer (or before Run). When the
// session cap (FetchOptions.MaxPeers) is reached, the lowest-utility
// live session is dropped to make room. AddPeer fails once the engine
// has finished or every session has already exhausted. A session added
// before Run folds what it receives into the working set, but nothing is
// decoded until Run starts the peel stage: such a session reads at most
// n symbols' worth and then waits for Run.
func (o *Orchestrator) AddPeer(addr string) error {
	if o.ctx.Err() != nil {
		return errors.New("peer: transfer already finished")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.feedersClosed {
		return errors.New("peer: engine wound down (all sessions exhausted)")
	}
	if _, dup := o.sessions[addr]; dup {
		return fmt.Errorf("peer: already connected to %s", addr)
	}
	if o.maxPeers > 0 && len(o.sessions) >= o.maxPeers {
		o.evictLowestLocked()
	}
	o.startSessionLocked(addr, false)
	return nil
}

// startSessionLocked launches the session goroutine for addr and
// records the address as attempted. Callers hold o.mu and have already
// checked capacity and duplication.
func (o *Orchestrator) startSessionLocked(addr string, discovered bool) {
	s := newSession(o, addr)
	s.stats.Discovered = discovered
	o.attempted[addr] = true
	o.sessions[addr] = s
	o.sessionsGen.Add(1)
	o.stats = append(o.stats, s.stats)
	if !o.opts.Uninformed && len(o.log.ids) > 0 { // its OPEN will carry a summary
		o.partials = append(o.partials, s)
	}
	o.active++
	o.met.started.Inc()
	o.met.live.Set(int64(len(o.sessions)))
	go s.run()
}

// considerDiscovered is the gossip admission path: a freshly learned
// advertisement is admitted as a live session while slots are free
// (MaxPeers unreached or unlimited), deferred to the ranked candidate
// pool when the engine is full, and dropped when it is unusable (wrong
// content, our own address, already connected or attempted). It reports
// whether a session was started.
func (o *Orchestrator) considerDiscovered(ad protocol.PeerAd) bool {
	if o.gossip == nil || ad.ContentID != o.contentID || ad.Addr == "" ||
		ad.Addr == o.opts.AdvertiseAddr || o.ctx.Err() != nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.feedersClosed || o.attempted[ad.Addr] || o.penalties.Banned(ad.Addr) {
		return false
	}
	if _, live := o.sessions[ad.Addr]; live {
		return false
	}
	if o.maxPeers > 0 && len(o.sessions) >= o.maxPeers {
		for _, c := range o.candidates {
			if c.ad.Addr == ad.Addr {
				return false
			}
		}
		if len(o.candidates) < maxCandidates {
			o.candidates = append(o.candidates, gossipCandidate{ad: ad, seq: o.candidateSeq})
			o.candidateSeq++
			o.met.gossipDefer.Inc()
			o.trace(obs.EvGossipDefer, ad.Addr, "")
		}
		return false
	}
	o.met.gossipAdmit.Inc()
	o.trace(obs.EvGossipAdmit, ad.Addr, "")
	o.startSessionLocked(ad.Addr, true)
	return true
}

// promoteCandidateLocked starts a session for the best-ranked candidate
// when a slot is free: fresh discoveries (no dial failures) rank above
// every requeued address, then highest gossip mention count, then
// earliest discovery as tie-break. Banned addresses are skipped.
// Callers hold o.mu.
func (o *Orchestrator) promoteCandidateLocked() {
	if len(o.candidates) == 0 ||
		(o.maxPeers > 0 && len(o.sessions) >= o.maxPeers) {
		return
	}
	best := -1
	bestHits := -1
	bestFresh := false
	for i, c := range o.candidates {
		// A requeued candidate (fails > 0) is by definition attempted —
		// the attempted check only bars *fresh* duplicates of addresses
		// that already had a session at full priority.
		if _, live := o.sessions[c.ad.Addr]; live ||
			(c.fails == 0 && o.attempted[c.ad.Addr]) ||
			o.penalties.Banned(c.ad.Addr) {
			continue
		}
		fresh := c.fails == 0
		hits := o.gossip.hitCount(c.ad)
		better := false
		switch {
		case best < 0:
			better = true
		case fresh != bestFresh:
			better = fresh
		case hits != bestHits:
			better = hits > bestHits
		default:
			better = c.seq < o.candidates[best].seq
		}
		if better {
			best, bestHits, bestFresh = i, hits, fresh
		}
	}
	if best < 0 {
		o.candidates = o.candidates[:0] // nothing usable left
		return
	}
	ad := o.candidates[best].ad
	o.candidates = append(o.candidates[:best], o.candidates[best+1:]...)
	o.met.gossipPromote.Inc()
	o.trace(obs.EvGossipPromote, ad.Addr, "")
	o.startSessionLocked(ad.Addr, true)
}

// maxCandidates caps the discovered-address candidate pool kept when
// gossip finds more peers than MaxPeers allows live. Candidates are
// ranked by gossip mention count and promoted as slots free up.
const maxCandidates = 32

// maxCandidateRedials bounds how many times a never-reached discovery is
// requeued into the candidate pool before the address is written off.
const maxCandidateRedials = 3

// maybeRequeueLocked returns a discovered session that never managed to
// connect to the candidate pool at decayed rank: the address was
// advertised, so it may simply not be listening *yet* (gossip races node
// start-up under churn) — but it re-enters ranked below every fresh
// discovery and with a bounded budget, never again at full priority.
// Terminal errors, drops, bans and established-then-failed sessions are
// not requeued. Callers hold o.mu.
func (o *Orchestrator) maybeRequeueLocked(s *session) {
	if o.feedersClosed || o.ctx.Err() != nil {
		return
	}
	if !s.stats.Discovered || s.connected || s.stats.Evicted || s.stats.Err == nil {
		return
	}
	if terminalSessionError(s.stats.Err) || o.penalties.Banned(s.addr) {
		return
	}
	n := o.dialFails[s.addr] + 1
	if n > maxCandidateRedials || len(o.candidates) >= maxCandidates {
		return
	}
	o.dialFails[s.addr] = n
	o.candidates = append(o.candidates, gossipCandidate{
		ad:    protocol.PeerAd{ContentID: o.contentID, Addr: s.addr},
		seq:   o.candidateSeq,
		fails: n,
	})
	o.candidateSeq++
}

// Penalties returns the orchestrator's misbehavior penalty box — the
// shared one from FetchOptions, or the private box created when none was
// given. A co-located Server passes it to SetPenalties so client- and
// server-plane misbehavior feed one verdict.
func (o *Orchestrator) Penalties() *PenaltyBox { return o.penalties }

// gossipAdverts appends the advertisements a session relays to its
// sender (relay.send) to dst: this node's own address, the addresses of
// its other live sessions, and the best of the directory — excluding the
// peer being talked to. What it appends changes only when the
// directory's generation or sessionsGen moves (session.adGenerations).
func (o *Orchestrator) gossipAdverts(dst []protocol.PeerAd, excludeAddr string) []protocol.PeerAd {
	if o.gossip == nil {
		return dst
	}
	if self := o.opts.AdvertiseAddr; self != "" {
		dst = append(dst, protocol.PeerAd{ContentID: o.contentID, Addr: self})
	}
	o.mu.Lock()
	for addr := range o.sessions {
		if addr != excludeAddr {
			dst = append(dst, protocol.PeerAd{ContentID: o.contentID, Addr: addr})
		}
	}
	o.mu.Unlock()
	n := len(dst)
	dst = o.gossip.AppendSnapshot(dst, o.contentID, protocol.MaxPeerAds)
	best := slices.DeleteFunc(dst[n:], func(ad protocol.PeerAd) bool { return ad.Addr == excludeAddr })
	return dst[:n+len(best)]
}

// SetMaxPeers rebudgets the live session cap mid-transfer (0 =
// unlimited) — the hook a multi-content node uses to re-split its
// connection slots when a concurrent download starts or ends.
// Shrinking below the live session count evicts lowest-utility sessions
// immediately; growing promotes waiting gossip candidates into the new
// slots. Shrink before you grow when moving slots between orchestrators
// sharing one global budget, so the sum never overshoots.
func (o *Orchestrator) SetMaxPeers(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.maxPeers = n
	if n > 0 {
		for len(o.sessions) > n {
			before := len(o.sessions)
			o.evictLowestLocked()
			if len(o.sessions) == before {
				break // nothing evictable
			}
		}
	}
	if !o.feedersClosed && o.ctx.Err() == nil {
		for {
			before := len(o.sessions)
			o.promoteCandidateLocked()
			if len(o.sessions) == before {
				break // no free slot or no usable candidate
			}
		}
	}
}

// MaxPeers returns the current live-session cap (0 = unlimited).
func (o *Orchestrator) MaxPeers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.maxPeers
}

// SetChannelWindow re-sizes this fetch's per-session windows to n symbol
// frames — a node's second budget: where SetMaxPeers moves whole
// sessions between fetches, SetChannelWindow moves wire bandwidth
// between the subchannels already sharing a wire. New channels open at
// n; every live channel's window is set at once (Channel.SetWindow
// clamps to the wire's limit and writes nothing), and each session's
// requests follow at its next batch boundary — the window is the only
// bound on what it has in flight. n <= 0 restores the wire default for
// new channels and leaves live ones alone.
func (o *Orchestrator) SetChannelWindow(n int) {
	o.chanWin.Store(int64(n))
	if n <= 0 {
		return
	}
	o.mu.Lock()
	chs := make([]*peermux.Channel, 0, len(o.sessions))
	for _, s := range o.sessions {
		if s.ch != nil {
			chs = append(chs, s.ch)
		}
	}
	o.mu.Unlock()
	for _, ch := range chs {
		ch.SetWindow(n)
	}
}

// ChannelWindow returns the current per-session window target (0 = the
// wire default).
func (o *Orchestrator) ChannelWindow() int { return int(o.chanWin.Load()) }

// Progress returns the count of distinct encoded symbols decoded into
// the working set so far — the cheap monotone signal a scheduler
// differentiates into a per-content download rate.
func (o *Orchestrator) Progress() int { return int(o.progress.Load()) }

// Info returns the content metadata and whether a handshake has fixed
// it yet — the non-blocking sibling of WaitInfo.
func (o *Orchestrator) Info() (ContentInfo, bool) {
	select {
	case <-o.infoReady:
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.info, true
	default:
		return ContentInfo{}, false
	}
}

// DropPeer disconnects addr's session (it winds down cleanly and is
// marked Evicted). It reports whether a live session was found.
func (o *Orchestrator) DropPeer(addr string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.sessions[addr]
	if s == nil {
		return false
	}
	s.evict()
	return true
}

// evictLowestLocked drops the live session with the lowest utility
// score (useful symbols per second). Callers hold o.mu.
func (o *Orchestrator) evictLowestLocked() {
	var victim *session
	worst := 0.0
	for _, s := range o.sessions {
		u := s.utilityLocked()
		if victim == nil || u < worst {
			victim, worst = s, u
		}
	}
	if victim != nil {
		victim.evict()
		delete(o.sessions, victim.addr) // a replacement may reuse the address slot
		o.sessionsGen.Add(1)
		o.met.evicted.Inc()
		o.met.live.Set(int64(len(o.sessions)))
		o.trace(obs.EvEvict, victim.addr, "lowest utility")
	}
}

// Sessions returns a snapshot of the live sessions' stats, ranked by
// descending utility — the orchestrator's current peer ranking.
func (o *Orchestrator) Sessions() []PeerStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]PeerStats, 0, len(o.sessions))
	for _, s := range o.sessions {
		st := *s.stats
		st.Utility = s.utilityLocked()
		out = append(out, st)
	}
	for i := 1; i < len(out); i++ { // insertion sort: the set is small
		for j := i; j > 0 && out[j].Utility > out[j-1].Utility; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WaitInfo blocks until the first handshake fixes the content metadata
// (a collaborative node needs it to start serving its live working set).
func (o *Orchestrator) WaitInfo(ctx context.Context) (ContentInfo, error) {
	ready := func() (ContentInfo, bool) {
		select {
		case <-o.infoReady:
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.info, true
		default:
			return ContentInfo{}, false
		}
	}
	select {
	case <-o.infoReady:
	case <-o.ctx.Done():
		// A fast transfer may end and close infoReady near-simultaneously
		// and select picks among ready cases at random — prefer the info.
		if info, ok := ready(); ok {
			return info, nil
		}
		return ContentInfo{}, errors.New("peer: transfer finished before any handshake")
	case <-ctx.Done():
		if info, ok := ready(); ok {
			return info, nil
		}
		return ContentInfo{}, ctx.Err()
	}
	info, _ := ready()
	return info, nil
}

// WorkingSet implements WorkingSetSource: a live Server can serve this
// orchestrator's growing working set while it downloads — the
// collaborative, both-directions transfers of Figure 1(c). It is the
// log's view (symbolLog.WorkingSet), taken under o.mu and read outside
// it: summaries, what the peel stage's cursor walks and the final
// FetchResult.Held are all this view, and its length is the number
// Progress reports.
func (o *Orchestrator) WorkingSet() (ids []uint64, payloads [][]byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.log.WorkingSet()
}

// ensureDecoder validates hello metadata against (or initializes) the
// shared content info and fountain decoder — the first handshake wins,
// later ones must agree. The decoder goes straight to the peel stage.
func (o *Orchestrator) ensureDecoder(ci ContentInfo) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.info.NumBlocks == 0 { // no handshake yet: validate admits no zero
		if err := ci.validate(); err != nil {
			return err
		}
		code, err := fountain.NewCode(ci.NumBlocks, nil, ci.CodeSeed)
		if err != nil {
			return err
		}
		fdec, err := fountain.NewDecoder(code, ci.BlockSize)
		if err != nil {
			return err
		}
		o.peel.setDecoder(fdec)
		o.info = ci
		// A fetch decodes from about n(1+ε) symbols: room for them up front,
		// so the fold never regrows the log or rehashes its index.
		o.log.reserve(ci.NumBlocks + ci.NumBlocks/8)
		// The blind OPEN's sender answers at most the need, in whole
		// batches: claimed now, so no session spends it twice before that
		// OPEN's ACCEPT settles what it will be.
		if b := o.blind; b != nil {
			n := (o.needLocked() + o.opts.Batch - 1) / o.opts.Batch * o.opts.Batch
			o.asked += n
			b.owed += n
			o.blind = nil
		}
		close(o.infoReady)
		return nil
	}
	if o.info != ci {
		return fmt.Errorf("%w: %+v vs %+v", errInconsistentInfo, o.info, ci)
	}
	return nil
}

// joinPartials puts s last among the live partial sessions, unless it is
// there already: when its OPEN carries a summary (which names its slice)
// and when its ACCEPT says it serves a partial sender. The others keep
// their slice index and learn the new count at their next batch boundary.
func (o *Orchestrator) joinPartials(s *session) {
	o.mu.Lock()
	o.joinPartialsLocked(s)
	o.mu.Unlock()
}

// joinPartialsLocked is joinPartials for callers that hold o.mu.
func (o *Orchestrator) joinPartialsLocked(s *session) {
	if !slices.Contains(o.partials, s) {
		o.partials = append(o.partials, s)
	}
}

// leavePartials takes s out of the live partial sessions when its ACCEPT
// says full or its connection attempt ends; the slices close ranks.
func (o *Orchestrator) leavePartials(s *session) {
	o.mu.Lock()
	if i := slices.Index(o.partials, s); i >= 0 {
		o.partials = slices.Delete(o.partials, i, i+1)
	}
	o.mu.Unlock()
}

// sliceOf is the slice of the id space s's summaries hand its sender: its
// place among the live partial sessions, of their count (0 of 0, the whole
// space, for a session not among them or past what the wire can number).
func (o *Orchestrator) sliceOf(s *session) (slice, of uint16) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sliceOfLocked(s)
}

// sliceOfLocked is sliceOf for callers that hold o.mu.
func (o *Orchestrator) sliceOfLocked(s *session) (slice, of uint16) {
	i, n := slices.Index(o.partials, s), len(o.partials)
	if i < 0 || n > math.MaxUint16 {
		return 0, 0
	}
	return uint16(i), uint16(n)
}

// summarize returns the SUMMARY frame s sends next, the slice it names
// and how much of the log it covers, all read under one lock so the three
// agree. A session whose OPEN carries the summary joins the fetch's
// partial sessions first (join), so the slice it names is its own. A log
// that holds nothing has no summary: a frame with no payload, covering 0.
// The payload is s's own buffer (session.summary), valid until s's next
// summary: once it has the room, a summary allocates nothing.
func (o *Orchestrator) summarize(s *session, join bool) (f protocol.Frame, slice, of uint16, covers int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	covers = len(o.log.ids)
	if covers == 0 {
		return protocol.Frame{}, 0, 0, 0, nil
	}
	if join {
		o.joinPartialsLocked(s)
	}
	slice, of = o.sliceOfLocked(s)
	s.summary, err = o.summaryLocked(s.summary[:0], slice, of)
	if err != nil {
		return protocol.Frame{}, 0, 0, 0, err
	}
	return protocol.Frame{Type: protocol.TypeSummary, Payload: s.summary}, slice, of, covers, nil
}

// summaryLocked appends to dst the SUMMARY payload naming slice of of:
// the fetch's Bloom filter over the whole log, marshaled behind the slice
// fields, growing dst at most once. The filter follows the
// paper's §5.2 low false-positive operating point, 8 bits per element and
// 5 hashes, under seed 0, which every peer on the wire shares. The filter
// is kept from one summary to the next and takes in only what the log
// gained since (log.ids[filtered:]), so a summary costs what changed and
// a fetch that sends none builds none. It is sized like the log's
// reserve: for n + n/8 ids once a handshake told the fetch k (more if the
// log already holds more), for the log and an eighth before; it is rebuilt
// from the log only when that outgrows it — for the blind OPEN, and once
// after the first ACCEPT. Until it is rebuilt its false positives stay the
// ids they are, summary after summary (see cursor); in a stalled endgame
// nothing new arrives to refresh on, so a refresh would not draw new ones
// either. A refresh still sends the whole filter: a fetch of k=4096 sets
// 5 bits for each new id in 576 words, so a few hundred new ids change
// nearly every word. Callers hold o.mu.
func (o *Orchestrator) summaryLocked(dst []byte, slice, of uint16) ([]byte, error) {
	n, k := len(o.log.ids), o.info.NumBlocks
	want := n + n/8
	if k > 0 {
		want = max(n, k+k/8)
	}
	if o.filter == nil || want > o.sizedFor {
		o.filter = bloom.NewWithBitsPerElement(0, max(want, 1), 8, 5)
		o.filtered, o.sizedFor = 0, want
	}
	for _, id := range o.log.ids[o.filtered:] {
		o.filter.Add(id)
	}
	o.filtered = n
	return protocol.AppendSummary(slices.Grow(dst, protocol.SummaryLen(o.filter.BinaryLen())), slice, of, o.filter)
}

// needLocked is what the fetch may have requested and not yet received
// (need, at the working set's length). Callers hold o.mu and know k.
func (o *Orchestrator) needLocked() int {
	return need(o.info.NumBlocks, len(o.log.ids), o.opts.Batch)
}

// openRound returns how many batches s's OPEN asks for, at most max (what
// the channel's window admits), and claims them. Before any ACCEPT has
// told the fetch k, the first OPEN asks for max — the sender clamps it to
// the need, which is what the first handshake claims for it, and its
// ACCEPT says how much it will answer (settleOpen) — and OPENs concurrent
// with it ask for nothing; after, an OPEN asks for what the budget
// leaves.
func (o *Orchestrator) openRound(s *session, max int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.info.NumBlocks == 0 {
		if o.blind != nil {
			return 0
		}
		o.blind = s
		return max
	}
	d := min(max, (o.needLocked()-o.asked)/o.opts.Batch)
	if d <= 0 {
		return 0
	}
	o.asked += d * o.opts.Batch
	s.owed += d * o.opts.Batch
	return d
}

// settleOpen replaces what s's OPEN claimed by the round its ACCEPT says
// the sender will answer, in batches. It follows ensureDecoder.
func (o *Orchestrator) settleOpen(s *session, batches int) {
	o.mu.Lock()
	n := batches * o.opts.Batch
	o.asked += n - s.owed
	s.owed = n
	o.mu.Unlock()
}

// share is a session's even share of what the fetch still needs among
// its live sessions, never less than a batch: the most a session owes
// beyond its one request (claim), and the news since its last summary
// that makes a partial session re-summarize (serveChannel). It follows
// ensureDecoder.
func (o *Orchestrator) share() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.shareLocked()
}

// shareLocked is share for callers that hold o.mu.
func (o *Orchestrator) shareLocked() int {
	return max(o.opts.Batch, o.needLocked()/max(len(o.sessions), 1))
}

// claim reserves n more symbols of the budget for s, a request's worth:
// always when s has nothing in flight (every session keeps a request),
// otherwise only while asked stays within need and what s owes within its
// share of it. The share keeps the split from following the scheduler:
// first come, the session that runs first would claim the whole need, and
// a partial sender would answer all of it under the summary it has, past
// its slice into ids the other senders deliver meanwhile.
func (o *Orchestrator) claim(s *session, n int, idle bool) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !idle && (o.asked+n > o.needLocked() || s.owed+n > o.shareLocked()) {
		return false
	}
	o.asked += n
	s.owed += n
	return true
}

// retire gives back up to n of the symbols s still owes: a request's at
// its DONE, and at the end of a connection everything it owed. A blind OPEN
// that ended before any ACCEPT told the fetch k leaves the next OPEN
// free to ask blind again.
func (o *Orchestrator) retire(s *session, n int) {
	o.mu.Lock()
	n = min(n, s.owed)
	o.asked -= n
	s.owed -= n
	if o.blind == s {
		o.blind = nil
	}
	o.mu.Unlock()
}

// arrival is what a fold made of one symbol.
type arrival uint8

const (
	// arrivedLate: the fetch had ended; nothing was counted.
	arrivedLate arrival = iota
	// arrivedNew: the symbol was new to the working set.
	arrivedNew
	// arrivedCovered: a duplicate of an id the session's last summary
	// held — its sender had not read that summary yet when it sent it.
	arrivedCovered
	// arrivedStale: a duplicate of an id the fetch learned after the
	// session's last summary, which a fresher one would have spared.
	arrivedStale
)

// fold puts one arrival into the working set, on the goroutine of the
// session that read it, and charges it to st, the session's stats. data
// may be a view that dies with the caller's frame: a new symbol's payload
// is copied into the log's current slab, a duplicate is not copied at
// all. summarized is how much of the log the session's last summary
// covered, which is what tells the two ways an arrival can be a duplicate
// apart (fetchMetrics.dupBefore, dupSince). It reports what the symbol
// was and whether the fetch is still on; a fold after it finished counts
// nothing. Below n symbols the peel stage is only told how far the log
// reaches. From n on every fold that grew the log settles the stage, so
// completion is seen at the symbol that brings it and the session reads
// nothing more off the wire; sessions folding at that moment can each
// put at most one more symbol into the log, none into the decoder.
func (o *Orchestrator) fold(st *PeerStats, summarized int, id uint64, data []byte) (a arrival, on bool) {
	o.mu.Lock()
	if o.ctx.Err() != nil {
		o.mu.Unlock()
		return arrivedLate, false
	}
	pos, held := o.log.add(id, data)
	if !held {
		st.UsefulSymbols++
	}
	st.SymbolsReceived++
	known := len(o.log.ids)
	o.progress.Store(int64(known))
	settle := known >= o.info.NumBlocks
	o.mu.Unlock()
	o.met.received.Inc()
	switch {
	case !held:
		a = arrivedNew
		o.met.useful.Inc()
		o.peel.announce(known, settle)
	case pos < summarized:
		a = arrivedCovered
		o.met.dupBefore.Inc()
	default:
		a = arrivedStale
		o.met.dupSince.Inc()
	}
	return a, o.ctx.Err() == nil
}

// Run connects the given peers and decodes until the content completes,
// every session exhausts, or ctx is cancelled. More peers may join
// mid-run via AddPeer. Run may be called once per Orchestrator.
func (o *Orchestrator) Run(ctx context.Context, addrs ...string) (*FetchResult, error) {
	o.mu.Lock()
	if o.running {
		o.mu.Unlock()
		return nil, errors.New("peer: Run called twice")
	}
	o.running = true
	o.mu.Unlock()
	if o.opts.Fabric == nil {
		defer o.fabric.Close() // the private one
	}

	// The hold keeps the feeder barrier open until every initial AddPeer
	// ran (a fast-failing first session must not wind the engine down
	// while later peers are still being added).
	o.hold()
	for _, a := range addrs {
		if err := o.AddPeer(a); err != nil {
			// A peer that never got a session (duplicate address, cap
			// conflict) still appears in the result with its error, so
			// callers see the reduced parallelism instead of a silently
			// shorter peer list.
			o.mu.Lock()
			o.stats = append(o.stats, &PeerStats{Addr: a, Err: err})
			o.mu.Unlock()
		}
	}
	// Addresses already sitting in a shared gossip directory (a
	// collaborative node whose Server heard clients before Run) go
	// through the same admission path as live discoveries.
	if o.gossip != nil {
		for _, ad := range o.gossip.AppendSnapshot(nil, o.contentID, 0) {
			o.considerDiscovered(ad)
		}
	}
	o.mu.Lock()
	started := len(o.stats)
	o.mu.Unlock()
	o.unhold()
	if started == 0 {
		// Every exit of Run must end the fetch: a collaborative caller's
		// concurrent WaitInfo would otherwise block forever.
		o.finish()
		return nil, errors.New("peer: no peers given")
	}

	// The caller's context ends the transfer like completion does.
	defer context.AfterFunc(ctx, o.finish)()

	// The peel stage ends the fetch on completion or a rejected symbol,
	// which unwinds the sessions; the last one out closes idle whichever
	// way the fetch ended. Nothing folds after that, so the log is final:
	// what the cursor has not reached cannot complete the content (that
	// takes n symbols, and from n on every growing fold was settled), but
	// a symbol the decoder rejects must still fail the fetch.
	go o.peel.run()
	<-o.idle
	o.finish()
	_, decodeErr := o.peel.announce(o.Progress(), true)
	o.peel.stop() // the decoder is ours
	if decodeErr != nil {
		return nil, decodeErr
	}
	res, err := o.collectResult(o.peel.dec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if !res.Completed {
		var firstErr error
		for _, p := range res.Peers {
			if p.Err != nil {
				firstErr = p.Err
				break
			}
		}
		if firstErr != nil {
			return res, fmt.Errorf("peer: download incomplete: %w", firstErr)
		}
		return res, errors.New("peer: download incomplete: peers exhausted")
	}
	return res, nil
}

// collectResult assembles the final FetchResult (all sessions have
// exited; no concurrent state changes).
func (o *Orchestrator) collectResult(fdec *fountain.Decoder) (*FetchResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids, payloads := o.log.WorkingSet()
	res := &FetchResult{Info: o.info, Held: make(map[uint64][]byte, len(ids)), DistinctSymbols: len(ids)}
	for i, id := range ids {
		res.Held[id] = payloads[i]
	}
	res.Peers = make([]PeerStats, len(o.stats))
	for i, st := range o.stats {
		res.Peers[i] = *st
		if !res.Peers[i].Banned {
			// A ban can also land after the session exited (server-plane
			// penalties through a shared box); report the final verdict.
			res.Peers[i].Banned = o.penalties.Banned(st.Addr)
		}
	}
	if fdec != nil {
		res.Completed = fdec.Done()
		res.DecodeOverhead = fdec.Overhead()
		if res.Completed {
			data, err := fdec.Content(o.info.OrigLen)
			if err != nil {
				return nil, err
			}
			res.Data = data
		}
	}
	return res, nil
}
