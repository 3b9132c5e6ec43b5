package peer

// session.go is one peer session's state machine: open a subchannel on
// the fabric wire to the peer (dialing the wire if none is live; the
// channel negotiation is the content handshake) → Bloom summary →
// pipelined batched request loop, with reconnect-backoff around the
// whole lifecycle. A session owns nothing shared, and it is the fold: it
// hands each SYMBOL frame it reads to Orchestrator.fold as a view, on its
// own goroutine, and learns from the answer whether the symbol was new
// and whether the fetch is still on — so the one queue between the wire
// and the working set is its channel's. It reads global progress
// through an atomic, and its per-peer statistics, charged by the fold,
// are what the orchestrator's utility ranking consumes. Sessions end in
// exactly one of four ways: the transfer ended (the fetch's context), the
// peer stopped being useful (MaxUselessBatches), the orchestrator dropped
// them (eviction/DropPeer cancel the session's context, a child of the
// fetch's), or the connection failed terminally (after MaxReconnects
// redials). The backoff sleep ends with the session's context. Each
// connection attempt is an attempt: one context, a child of the
// session's, that every blocking step — the dial and the open, a read on
// the established channel — ends with, and one timer that cancels it when
// the open goes unanswered or the attempt stalls.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"icd/internal/obs"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/protocol"
)

// ErrUnknownContent marks a session whose peer answered the handshake
// with the canonical unknown-content ERROR (protocol.ReasonUnknownContent):
// the address is alive but does not serve this content id, so redialing
// it is pointless — the session fails terminally without retries, and a
// scheduler can write the peer off for this content while still using
// it for others.
var ErrUnknownContent = errors.New("peer: peer does not serve this content")

// ErrRefused marks a session whose peer explicitly declined to serve us
// (protocol.ReasonRefused — our address sits in its penalty box).
// Terminal and never charged back: redialing cannot change the verdict
// before it decays on the refuser's side, and penalizing an explicit
// refusal would let two nodes that each misattributed one environmental
// fault escalate into banning each other permanently.
var ErrRefused = errors.New("peer: peer refused to serve us")

type session struct {
	o     *Orchestrator
	addr  string
	stats *PeerStats
	rng   prng.Rand // backoff jitter (session goroutine only)
	// ctx is the session's lifetime, a child of the fetch's: the transfer
	// ending cancels it from above, eviction and DropPeer call cancel.
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by o.mu: when the session joined the swarm. Utility is
	// measured over the whole session life — downtime between redials
	// counts against a flapping peer's ranking, deliberately.
	startedAt time.Time
	// Guarded by o.mu: whether any dial of this session ever produced a
	// connection — the requeue path only reconsiders addresses that were
	// never reached at all.
	connected bool
	// Guarded by o.mu: the live subchannel while a connection is up, so
	// the scheduler's SetChannelWindow can resize it mid-transfer and a
	// cancel can expire its deadline (wake).
	ch *peermux.Channel
	// Guarded by o.mu: the symbols this connection attempt requested and
	// has not retired — its share of o.asked.
	owed int
	// Guarded by o.mu: the buffer this session's summaries are marshaled
	// into (Orchestrator.summarize), kept from one to the next.
	summary []byte
}

func newSession(o *Orchestrator, addr string) *session {
	// Seed the jitter stream from the address so swarms are
	// reproducible, yet sessions to different peers stay decorrelated.
	s := &session{
		o:         o,
		addr:      addr,
		stats:     &PeerStats{Addr: addr},
		startedAt: time.Now(),
	}
	s.rng.Reseed(addrSeed(addr))
	s.ctx, s.cancel = context.WithCancel(o.ctx)
	return s
}

// errInconsistentInfo marks a session whose peer's ACCEPT describes the
// content otherwise than the fetch's first handshake did (ensureDecoder).
var errInconsistentInfo = errors.New("peer: inconsistent content metadata")

// terminalSessionError reports errors no redial can fix: the peer is
// healthy but speaks an incompatible protocol version, does not hold
// this content, serves it under other parameters, or refuses to serve
// us. All short-circuit the reconnect-backoff budget (and, via runConn,
// are never charged), and each is the peer's verdict, not an unblocked
// wait: one found after the fetch ended is still reported.
func terminalSessionError(err error) bool {
	return errors.Is(err, ErrUnknownContent) || errors.Is(err, ErrRefused) ||
		errors.Is(err, protocol.ErrVersion) || errors.Is(err, errInconsistentInfo)
}

// evict ends the session deliberately: it winds down cleanly, marked
// Evicted. Cancelling its context ends the attempt in progress or the
// backoff sleep between two, and a read parked on the live channel
// returns (wake). Callers hold o.mu.
func (s *session) evict() {
	s.stats.Evicted = true
	s.cancel()
	s.wake()
}

// wake expires the live channel's deadline, so a read parked on it
// returns and finds its context done: what every cancel of a session
// that is serving a channel does (evict, Orchestrator.wakeSessions,
// attempt.stop). A channel the session is still setting up is covered
// by serveChannel's deadline, which re-checks the context after each
// push. Callers hold o.mu.
func (s *session) wake() {
	if s.ch != nil {
		s.ch.SetDeadline(time.Now())
	}
}

// utilityLocked is the ranking score: useful symbols per second of
// session life (since the session joined, not since the last redial —
// a flapping peer must not out-rank a steady one). Callers hold o.mu.
func (s *session) utilityLocked() float64 {
	elapsed := time.Since(s.startedAt).Seconds()
	if elapsed < 1e-3 {
		elapsed = 1e-3
	}
	return float64(s.stats.UsefulSymbols) / elapsed
}

// run is the session goroutine: one connection lifecycle per iteration,
// with jittered, capped exponential backoff between redials.
func (s *session) run() {
	defer s.o.sessionExited(s)
	defer s.cancel()
	opts := &s.o.opts
	var terminal error
	for attempt := 0; ; attempt++ {
		err := s.runConn()
		if err == nil {
			break // clean end: completed, exhausted, or dropped
		}
		if terminalSessionError(err) {
			// The peer is healthy — it just cannot serve us this content
			// (wrong protocol version, or it does not hold the content).
			// Redialing cannot change that answer.
			terminal = err
			break
		}
		if s.ctx.Err() != nil {
			// The session is over (evicted, or the transfer ended), and the
			// cancel unblocked whatever the connection was doing: the error
			// that unwound runConn is self-inflicted — not a peer failure
			// worth reporting.
			break
		}
		if s.o.penalties.Banned(s.addr) {
			// The address crossed the ban threshold (this session's own
			// charges, other sessions', or the server plane's): containment
			// means not spending the rest of the redial budget on it.
			terminal = err
			break
		}
		if attempt >= opts.MaxReconnects {
			terminal = err
			break
		}
		delay := redialDelay(attempt, opts.ReconnectBackoff, opts.MaxReconnectBackoff, s.rng.Float64())
		if !s.sleepBackoff(delay) {
			break // the session ended mid-backoff: nothing left to redial for
		}
		s.o.mu.Lock()
		s.stats.Reconnects++
		s.o.mu.Unlock()
		s.o.met.redials.Inc()
		s.o.trace(obs.EvRedial, s.addr, "")
	}
	banned := s.o.penalties.Banned(s.addr)
	s.o.mu.Lock()
	s.stats.Err = terminal
	s.stats.Utility = s.utilityLocked()
	s.stats.Banned = banned
	s.o.mu.Unlock()
	if banned {
		s.o.met.bans.Inc()
		s.o.trace(obs.EvBan, s.addr, "")
	}
}

// sleepBackoff waits out a redial delay; it reports false when the
// session ended first.
func (s *session) sleepBackoff(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// errStalled is the cause the attempt's timer cancels it with when the
// stall window passed without a useful symbol.
var errStalled = errors.New("peer: no useful symbol within StallTimeout")

// errOpenTimeout is the cause the attempt's timer cancels it with when
// the peer left the open unanswered for Timeout.
var errOpenTimeout = errors.New("peer: open unanswered within Timeout")

// runConn runs one connection attempt: open a subchannel on the shared
// per-peer wire (the fabric dials the wire only if none is live), serve
// it, and classify how it ended — misbehavior observed on the wire
// (corrupt frames, mid-stream resets) charges the peer's penalty-box
// score on the way out. The channel negotiation doubles as the content
// handshake: the OPEN carries our hello, the ACCEPT carries the peer's.
// The OPEN also carries the first round of requests — what the fetch's
// budget leaves, up to the whole batches the window the channel opens at
// holds — and the first summary, which every sender answers behind its
// ACCEPT, so the first symbols arrive one round trip after the open.
// When the attempt ends, what it still owed goes back to the fetch's
// budget.
func (s *session) runConn() error {
	a := s.startAttempt()
	defer a.end()
	defer s.o.retire(s, math.MaxInt)
	defer s.o.leavePartials(s)
	issued := time.Now()
	ch, open, err := s.openChannel(a, issued)
	if err != nil {
		return err
	}
	defer ch.Close()
	err = s.serveChannel(a.ctx, ch, open, issued)
	// A cancelled attempt unblocked the channel itself, and a stall has
	// already been charged PenaltyStall: neither is a reset by the peer.
	if err != nil && a.ctx.Err() == nil && !terminalSessionError(err) {
		s.noteConnError(err)
	}
	return err
}

// attempt is one connection attempt: its context, a child of the
// session's, and the one timer that watches it. The timer fires when the
// open has gone unanswered for Timeout and, when FetchOptions.StallTimeout
// arms the stall watchdog, every quarter window, re-armed each time; it
// cancels the attempt with errOpenTimeout or errStalled, and that cancel
// also expires the channel's deadline (stop).
//
// The stall watchdog charges the address after a whole window in which
// the attempt delivered no useful symbol — whether it is still waiting
// for the answer to its open or sits on an established channel — and
// cancels the attempt. It does NOT evict the session. One silent window
// can be a transient wire artifact — a frame whose corrupted length field
// parks the wire's reader waiting for a phantom body is indistinguishable
// from a mute peer — so the redial budget gets to try again, on a fresh
// connection (a cancelled open gives the wedged wire up). A genuinely
// mute peer re-stalls every window and PenaltyStall escalates its score
// to a ban, which ends the redial loop terminally.
type attempt struct {
	// sess is the session, cleared when the attempt ends: a stopped timer
	// can stay in the runtime's timer heap until the time it was last set
	// for, and what it holds must not keep the fetch alive that long.
	sess   atomic.Pointer[session]
	ctx    context.Context
	cancel context.CancelCauseFunc
	timer  *time.Timer
	stall  time.Duration // FetchOptions.StallTimeout: 0 leaves the watchdog unarmed
	open   atomic.Bool   // the open is still waiting for the peer's answer
	openBy time.Time     // when an unanswered open times out

	// The stall watchdog's state, the timer's own: the session's useful
	// symbols when they last moved, and when that was seen.
	useful   int
	progress time.Time
}

// startAttempt starts a connection attempt, under a context of its own,
// a child of the session's, and its timer.
func (s *session) startAttempt() *attempt {
	now := time.Now()
	a := &attempt{stall: s.o.opts.StallTimeout, openBy: now.Add(s.o.opts.Timeout), progress: now}
	a.sess.Store(s)
	a.ctx, a.cancel = context.WithCancelCause(s.ctx)
	a.open.Store(true)
	s.o.mu.Lock()
	a.useful = s.stats.UsefulSymbols
	s.o.mu.Unlock()
	d, _ := a.next(now)
	// Armed by Reset, not at creation, so that a.timer is set before the
	// first tick can read it.
	a.timer = time.AfterFunc(time.Hour, a.tick)
	a.timer.Reset(d)
	return a
}

// answered records that the peer answered the open: the timer watches
// only for stalls from here on, and without a stall window it stops. It
// reports false when the timer timed the open out first: one of the two
// claims the open, so an answer recorded is never cancelled as missing.
func (a *attempt) answered() bool {
	if !a.open.CompareAndSwap(true, false) {
		return false
	}
	if a.stall <= 0 {
		a.timer.Stop()
	}
	return true
}

// end releases the attempt's context and timer, and lets go of the
// session.
func (a *attempt) end() {
	a.cancel(nil)
	a.timer.Stop()
	a.sess.Store(nil)
}

// next is how long until the timer has something to check, and whether
// it has anything left to: the stall window's quarter, and the open's
// timeout while it is unanswered.
func (a *attempt) next(now time.Time) (time.Duration, bool) {
	var d time.Duration
	ok := false
	if a.stall > 0 {
		d, ok = max(a.stall/4, time.Millisecond), true
	}
	if a.open.Load() {
		if until := a.openBy.Sub(now); !ok || until < d {
			d, ok = until, true
		}
	}
	return d, ok
}

// tick is the timer's check: an open unanswered past its timeout, or a
// whole stall window without a useful symbol, cancels the attempt;
// otherwise the timer is re-armed.
func (a *attempt) tick() {
	s := a.sess.Load()
	if s == nil || a.ctx.Err() != nil {
		return // the attempt is over
	}
	o := s.o
	now := time.Now()
	if !now.Before(a.openBy) && a.open.CompareAndSwap(true, false) {
		a.stop(s, errOpenTimeout)
		return
	}
	if a.stall > 0 {
		phase := "open"
		o.mu.Lock()
		useful := s.stats.UsefulSymbols
		if s.ch != nil {
			phase = "window"
		}
		o.mu.Unlock()
		if useful != a.useful {
			a.useful, a.progress = useful, now
		} else if now.Sub(a.progress) >= a.stall {
			o.mu.Lock()
			s.stats.Stalls++
			o.mu.Unlock()
			o.met.stalls.Inc()
			o.trace(obs.EvStall, s.addr, phase)
			o.penalties.Penalize(s.addr, PenaltyStall)
			a.stop(s, errStalled)
			return
		}
	}
	if d, ok := a.next(now); ok {
		a.timer.Reset(d)
	}
}

// stop cancels the attempt with cause and expires its channel's deadline,
// so that an open or a read it is parked in returns.
func (a *attempt) stop(s *session, cause error) {
	a.cancel(cause)
	s.o.mu.Lock()
	s.wake()
	s.o.mu.Unlock()
}

// openChannel opens this session's subchannel, issued at the given time,
// with dial accounting, and returns it with its OPEN's hello: a round of
// batches (Orchestrator.openRound) and, from an informed session that
// holds symbols, their Bloom summary, naming the slice the session takes
// among the fetch's partial sessions (a full sender ignores it, and the
// session leaves them at the ACCEPT). It classifies the peer's answers —
// a REJECT_CHANNEL, or an ERROR in place of the wire handshake — into the
// terminal errors: a verdict from a live peer is not a dial failure, so
// it does not charge the address.
func (s *session) openChannel(a *attempt, issued time.Time) (*peermux.Channel, protocol.Hello, error) {
	o, ctx := s.o, a.ctx
	// At most the whole batches the window the channel opens at holds, as
	// the fabric clamps it (0 opens at DefaultWindow, the largest any
	// channel gets): the round is asked for before anything of it has
	// arrived, so all of it is in flight at once.
	win := int(o.chanWin.Load())
	opensAt := peermux.DefaultWindow
	if win > 0 {
		opensAt = min(win, opensAt)
	}
	open := protocol.Hello{
		ContentID:  o.contentID,
		Batch:      uint32(o.opts.Batch),
		Depth:      uint16(o.openRound(s, opensAt/o.opts.Batch)),
		ListenAddr: o.opts.AdvertiseAddr,
	}
	if o.opts.Uninformed {
		open.Symbols = uint64(o.Progress())
	} else {
		summary, _, _, held, err := o.summarize(s, true)
		if err != nil {
			return nil, protocol.Hello{}, err
		}
		open.Symbols, open.Summary = uint64(held), summary.Payload
	}
	ch, err := o.fabric.OpenWindow(ctx, s.addr, open, win)
	if err == nil && !a.answered() {
		// The answer came as the open timed out: the timeout stands, as
		// it would had the timer fired a moment sooner.
		ch.Close()
		ch, err = nil, context.DeadlineExceeded
	}
	if err == nil {
		o.met.handshake.Observe(time.Since(issued).Seconds())
		s.reached()
		o.trace(obs.EvDial, s.addr, "")
		return ch, open, nil
	}
	if ctx.Err() != nil {
		cause := context.Cause(ctx)
		if cause != errOpenTimeout {
			// The attempt was abandoned — the session ended, or the stall
			// watchdog gave up on an open nobody answered (it did the
			// charging): no dial failed, so there is nothing to account.
			return nil, protocol.Hello{}, cause
		}
		// The open's own timeout: a failed dial, charged below.
		err = context.DeadlineExceeded
	}
	// The peer answered: the channel negotiation with a REJECT, or — a
	// banned dialer, or any dialer past the inbound connection cap, never
	// gets that far — the wire handshake itself with the refused or busy
	// ERROR. The address was reached and the answer may be a terminal
	// verdict; charging a refusal back as a dead peer is the mutual-ban
	// loop ErrRefused exists to forbid, and charging busy would ban an
	// honest peer for being saturated (it stays retryable, like a
	// pending-content reject).
	var rej *peermux.RejectError
	var rem *peermux.RemoteError
	answered, msg := false, ""
	if errors.As(err, &rej) {
		answered, msg = true, rej.Msg
	} else if errors.As(err, &rem) && (protocol.IsRefused(rem.Msg) || protocol.IsBusy(rem.Msg)) {
		answered, msg = true, rem.Msg
	}
	if answered {
		s.reached()
		if protocol.IsUnknownContent(msg) {
			return nil, protocol.Hello{}, fmt.Errorf("peer %s: %s: %w", s.addr, msg, ErrUnknownContent)
		}
		if protocol.IsRefused(msg) {
			return nil, protocol.Hello{}, fmt.Errorf("peer %s: %s: %w", s.addr, msg, ErrRefused)
		}
		return nil, protocol.Hello{}, fmt.Errorf("peer %s: %s", s.addr, msg)
	}
	if errors.Is(err, protocol.ErrVersion) {
		// The dial reached a live peer speaking an incompatible protocol
		// version — terminal, and not the address's fault.
		return nil, protocol.Hello{}, fmt.Errorf("peer %s: incompatible protocol: %w", s.addr, err)
	}
	if errors.Is(err, protocol.ErrCorrupt) {
		// The dial connected and the peer answered the handshake with
		// garbage: misbehavior on an established connection (the strongest
		// signal), not an unreachable address.
		s.reached()
		s.noteConnError(err)
		return nil, protocol.Hello{}, err
	}
	o.penalties.Penalize(s.addr, PenaltyDialFail)
	o.mu.Lock()
	s.stats.DialFailures++
	o.mu.Unlock()
	o.met.dialFailures.Inc()
	o.trace(obs.EvDialFail, s.addr, err.Error())
	return nil, protocol.Hello{}, err
}

// reached records that a dial got through to the address: it never
// requeues as a never-connected discovery.
func (s *session) reached() {
	s.o.mu.Lock()
	s.connected = true
	s.o.mu.Unlock()
}

func (s *session) setChannel(ch *peermux.Channel) {
	s.o.mu.Lock()
	s.ch = ch
	s.o.mu.Unlock()
}

// noteConnError records how an established connection failed: a corrupt
// frame (protocol.ErrCorrupt) is the strongest misbehavior signal; any
// other mid-stream failure counts as a reset, the churn-weight penalty.
func (s *session) noteConnError(err error) {
	o := s.o
	weight := PenaltyReset
	o.mu.Lock()
	corrupt := errors.Is(err, protocol.ErrCorrupt)
	if corrupt {
		s.stats.CorruptFrames++
		weight = PenaltyCorrupt
	} else {
		s.stats.Resets++
	}
	o.mu.Unlock()
	if corrupt {
		o.met.corrupt.Inc()
	} else {
		o.met.resets.Inc()
	}
	o.penalties.Penalize(s.addr, weight)
}

// serveChannel owns the session on an established subchannel, opened at
// issued by open, of whose round the ACCEPT says how many batches the
// sender answers: the ACCEPT's hello also carries the content
// parameters, so the session goes straight to decoder setup, summary
// refreshes, gossip, and the
// pipelined batched request loop (the wire's demux reader absorbs the
// symbol stream while requests are being written, so depth > 1 cannot
// deadlock even a synchronous pipe). Frames arrive through
// the channel's pooled queue and are folded as views of its buffers, so
// the loop allocates nothing per frame: a new symbol's payload is copied
// into the working set's current slab, which costs an allocation only
// when a slab fills, and the log's slabs double up to 1 MiB, so that is
// about ten times a fetch.
func (s *session) serveChannel(ctx context.Context, ch *peermux.Channel, open protocol.Hello, issued time.Time) error {
	o := s.o
	s.setChannel(ch)
	defer s.setChannel(nil)
	hello := ch.RemoteHello()
	// ctx ending (the transfer, the session, or the attempt's timer giving
	// up on it) unblocks a parked read by expiring the channel's deadline
	// (wake); deadline() re-checks after pushing the deadline out, so an
	// expiry that raced it, or came before setChannel, is not undone.
	deadline := func() {
		ch.SetDeadline(time.Now().Add(o.opts.Timeout))
		if ctx.Err() != nil {
			ch.SetDeadline(time.Now())
		}
	}
	deadline()
	if err := o.ensureDecoder(ContentInfo{
		ID:        hello.ContentID,
		NumBlocks: int(hello.NumBlocks),
		BlockSize: int(hello.BlockSize),
		OrigLen:   int(hello.OrigLen),
		CodeSeed:  hello.CodeSeed,
	}); err != nil {
		return err
	}
	// The OPEN's round counts as in flight for what the ACCEPT says will
	// be answered (a partial sender says 1), and the fetch's budget keeps
	// that much.
	round := min(int(hello.Depth), int(open.Depth))
	inflight := asks{sizes: make([]int, 0, depthCap(ch.Window(), o.opts.Batch))}
	for range round {
		inflight.push(o.opts.Batch)
	}
	o.settleOpen(s, round)
	// The request depth (pipeline.go): target batches in flight, from 1
	// until a batch asked for over an idle channel has been timed — asked
	// is when it was asked for (zero: no batch is being timed), first when
	// its first symbol arrived. The OPEN's round is the first such batch.
	target := 1
	var asked, first time.Time
	if round > 0 {
		asked = issued
	}

	// The summary (§5.2): a partial sender that reads Bloom summaries got
	// one in the OPEN if there was a working set, and gets refreshes. Full
	// senders stream fresh symbols — nothing to reconcile.
	informed := !hello.FullCopy && !o.opts.Uninformed && hello.SummaryMask&protocol.AllSummaryMask != 0
	sentSummary := informed && len(open.Summary) > 0
	o.mu.Lock()
	s.stats.Full = hello.FullCopy
	if sentSummary {
		s.stats.Summary = "bloom"
	}
	o.mu.Unlock()
	o.trace(obs.EvHandshake, s.addr, s.stats.Summary)
	// A partial sender gets a slice of the id space to serve first, its
	// place among the fetch's live partial sessions (the OPEN's summary
	// named it); every summary carries the slice it was sent under.
	if hello.FullCopy {
		o.leavePartials(s)
	} else {
		o.joinPartials(s)
	}
	slice, slices, _, _ := protocol.DecodeSummaryView(open.Summary) // 0 of 0 without one

	// Gossip: advertise what this node knows of the swarm right
	// after the handshake, then again piggybacked on every refresh
	// check. The relay sends each advertisement once per connection, and
	// a check when neither the directory nor the fetch's sessions changed
	// costs two atomic loads.
	gossip := newRelay()
	if err := gossip.send(ch, s); err != nil {
		return err
	}

	// Refresh (§5.2): the last summary goes stale by what other senders
	// delivered since — ids this sender may still hold queued as missing.
	// summarized is how much of the log that summary covered, cost its
	// bytes, mine what this session's own sender added to the log since
	// (it knows what it sent), and wasted the duplicates it sent since
	// that the summary could not spare (arrivedStale).
	summarized, cost, mine, wasted := int(open.Symbols), len(open.Summary), 0, 0

	useless := 0
	for {
		if s.ctx.Err() != nil {
			protocol.WriteFrame(ch, protocol.EncodeDone())
			return nil
		}
		// At a batch boundary a partial session re-summarizes on either of
		// two counts, neither of them a cadence. Ahead of waste: once the
		// news since its last summary — the ids other senders delivered —
		// reaches what its sender may still be asked for, the session's
		// share of what the fetch still needs (claim), or what it has in
		// flight and the batch it asks for next when that is more. The share
		// shrinks as the fetch completes, so refreshes come rarely while
		// most of what the sender holds is news to the receiver and more
		// often toward the end, where a sender runs out of its slice and
		// staleness turns into duplicates. Behind waste: once the
		// duplicates its sender sent that a fresher summary would have
		// spared weigh as much as the summary did (at once, before the
		// first), the stale summary has cost what a fresh one costs. Both
		// follow what the fetch learned and wasted, not how the scheduler
		// interleaves batches, and both price the filter: refreshing on
		// every batch of news spends more uplink on summaries than the
		// duplicates they spare. The check relays gossip first; with neither
		// the directory nor the fetch's sessions changed since the last
		// relay, that costs two atomic loads and writes nothing.
		refresh := false
		if !hello.FullCopy {
			if err := gossip.send(ch, s); err != nil {
				return err
			}
			news := o.Progress() - summarized - mine
			refresh = informed && (news >= max(o.share(), inflight.sum+o.opts.Batch) ||
				wasted > 0 && wasted*int(hello.BlockSize) >= cost)
		}
		// A partial session joined or left since the last summary: the
		// slices moved, and the sender learns its new one now, however
		// fresh the summary is. A session that has sent no summary has no
		// slice to move.
		if !refresh && sentSummary {
			i, n := o.sliceOf(s)
			refresh = i != slice || n != slices
		}
		if refresh {
			var summary protocol.Frame
			var err error
			summary, slice, slices, summarized, err = o.summarize(s, false)
			if err != nil {
				return err
			}
			cost, mine, wasted = len(summary.Payload), 0, 0
			deadline()
			if err := protocol.WriteFrame(ch, summary); err != nil {
				return err
			}
			sentSummary = true
			o.met.refreshes.Inc()
			o.mu.Lock()
			s.stats.Summary = "bloom"
			s.stats.RefreshesSent++
			o.mu.Unlock()
		}
		// Pipelined requests: keep up to the measured target outstanding
		// so the server's symbol stream never drains while a REQUEST is
		// in flight, as far as the window and the fetch's budget allow
		// (claim: a session with nothing in flight always gets one). The
		// window bounds the symbols in flight exactly: a request asks for
		// a batch, or for what the window has left when that is less.
		// Each iteration of the outer loop retires one request (one DONE),
		// so batch-boundary accounting below lags the wire by the pipeline
		// depth. The window is re-read here, at the batch boundary, so a
		// live window resize (Orchestrator.SetChannelWindow) moves the
		// depth with it.
		deadline()
		progressBefore := o.progress.Load()
		win := ch.Window()
		for len(inflight.sizes) < min(target, depthCap(win, o.opts.Batch)) {
			n := min(o.opts.Batch, win-inflight.sum)
			if n <= 0 || !o.claim(s, n, len(inflight.sizes) == 0) {
				break
			}
			if len(inflight.sizes) == 0 {
				asked = time.Now()
			}
			if err := protocol.WriteFrame(ch, protocol.EncodeRequest(uint32(n))); err != nil {
				// A pipelined REQUEST blocks against a server that is still
				// streaming the previous batch, so the transfer can complete
				// (and its context expire the deadline) while this write is
				// parked — the same self-inflicted unblock the read path
				// below classifies as a clean end.
				if s.ctx.Err() != nil {
					return nil
				}
				return err
			}
			inflight.push(n)
		}
		got := 0
		for {
			deadline()
			f, err := ch.Next()
			if err != nil {
				if s.ctx.Err() != nil {
					return nil
				}
				return err
			}
			if f.Type == protocol.TypeDone {
				o.retire(s, inflight.pop())
				if !asked.IsZero() {
					target = requestDepth(target, got, o.opts.Batch, first.Sub(asked), time.Since(first))
					asked = time.Time{}
				}
				break
			}
			switch f.Type {
			case protocol.TypeSymbol:
				// Folded as a view: nothing of the frame is copied here, and
				// what the working set keeps of it the fold copies.
				id, data, err := protocol.SymbolView(f)
				if err != nil {
					return err
				}
				if got == 0 && !asked.IsZero() {
					first = time.Now()
				}
				a, on := o.fold(s.stats, summarized, id, data)
				switch a {
				case arrivedNew:
					mine++
				case arrivedStale:
					wasted++
				}
				if !issued.IsZero() { // the attempt's first symbol
					o.met.firstSymbol.Observe(time.Since(issued).Seconds())
					issued = time.Time{}
				}
				if !on {
					return nil
				}
				got++
			case protocol.TypePeers:
				if err := gossip.receive(f, o.gossip); err != nil {
					return err
				}
			case protocol.TypeError:
				msg, _ := protocol.DecodeError(f)
				return fmt.Errorf("peer %s: %s", s.addr, msg)
			default:
				return fmt.Errorf("peer %s: unexpected %v", s.addr, f.Type)
			}
		}
		// A batch is useless when it carried nothing — a partial sender with
		// nothing left to offer answers a bare DONE — or when the working
		// set did not grow while it was in flight.
		uselessBatch := got == 0 || o.progress.Load() == progressBefore
		if uselessBatch {
			useless++
			if useless >= o.opts.MaxUselessBatches {
				protocol.WriteFrame(ch, protocol.EncodeDone())
				return nil // this peer has nothing more for us
			}
		} else {
			useless = 0
		}
	}
}

// adGenerations are the generations gossipAdverts' answer moves with:
// the directory's and the fetch's session set's (relay.send).
func (s *session) adGenerations() [2]uint64 {
	if s.o.gossip == nil {
		return [2]uint64{}
	}
	return [2]uint64{s.o.gossip.generation(), s.o.sessionsGen.Load()}
}

// appendAds appends what this session relays to its sender
// (Orchestrator.gossipAdverts).
func (s *session) appendAds(dst []protocol.PeerAd) []protocol.PeerAd {
	return s.o.gossipAdverts(dst, s.addr)
}
