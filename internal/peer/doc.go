// Package peer is the prototype implementation of informed content
// delivery (§6): real senders and receivers speaking the
// internal/protocol wire format over TCP (or any net.Conn, including
// net.Pipe in tests).
//
// There is one path between them. A ServerMux is the serving front
// door, the only thing that serves a channel: it owns the listener and
// admission, answers each connection's fabric handshake
// (internal/peermux: one wire per peer pair, one subchannel per content
// session) and serves every channel with the registered Server for its
// content id, on the planes it owns — the node's gossip directory, its
// penalty box, the serve.* and mux.* counters and the timeout. The
// obs.Registry attached with SetObs is the one source of those counts. A
// Server is only its content: the symbol source for one piece of
// content, either a *full* sender — a digital fountain streaming encoded
// symbols, which, once a content is fetched a second time, encodes the
// first ones of one stream once and replays them from memory to a
// receiver that opens holding nothing and can pass none of them on — or
// a *partial* sender over a WorkingSetSource: an append-only log of
// encoded symbols, fixed (NewPartialServer) or still being appended to
// by a fetch in progress (NewLiveServer over its Orchestrator), read as
// an O(1) prefix whose length is its version. Either way a partial
// sender sends what it holds, once: each serving session is a cursor on
// the log that sends, as plain SYMBOL frames and each log position at
// most once, the symbols the receiver's Bloom filter reports missing
// (§5.2, and §6.1's "a partial sender can find symbols of guaranteed
// utility ... recoding is not generally necessary": reconciled, informed
// transfers), by one serve loop. Recoding (§5.4.2) and the other
// summaries are the simulator's and the toolbox's; this package imports
// none of internal/recode, internal/strategy, internal/recon or
// internal/minwise.
//
// Partial senders also split the work without talking to each other.
// The receiver hands each of its live partial sessions, in join order, a
// slice of the id space in its summaries (the OPEN's first): slice i of
// s, where an id falls in slice splitmix64(id) mod s (protocol.InSlice). A sender's cursor
// queues what the summary leaves missing in two lists, its own slice and
// the rest, and sends its own slice first, so s senders spend their first
// transmissions on disjoint ids. A session joining or leaving moves the
// others' slices, and each of them sends one refresh carrying its new
// slice at its next batch boundary.
//
// Otherwise a session refreshes its summary on what the receiver learned,
// never on a cadence: at a batch boundary, once the ids other senders
// delivered since its last summary reach its even share of what the fetch
// still needs, or once the duplicates its sender sent that a fresher
// summary would have spared weigh as much as a summary. Its own sender's
// deliveries never count. A refresh costs what changed: the fetch tops
// its one filter up and marshals it into a buffer the session keeps, and
// a sender reading a summary of the same width and slice keeps its queue
// and drops, when their turn comes, the ids the new filter holds; only a
// rebuilt filter or a moved slice re-tests everything it has not sent.
//
// A receiver uses Fetch to download from any mix of full and partial
// senders in parallel; every session is a subchannel on the fabric wire
// to its peer (a lone Fetch builds a private fabric: a wire with one
// channel), symbols from all sessions feed one decoder, so flows are
// additive (§2.3), connections may drop and resume statelessly, and
// partially downloaded state can be carried into a later Fetch — the
// §2.3 "fully stateless connection migrations". A full sender's cached
// prefix keeps them stateless: it is replayed only to a session whose
// OPEN says the receiver holds nothing (Hello.Symbols == 0), which can
// hold none of it, while a redial or a fetch resumed from a working set
// says what it holds and is sent a fresh stream of its own. So a
// receiver that moves never draws a repeat, and what a session is sent
// follows from its OPEN alone, not from a record of the receiver's past
// sessions. The prefix has one life: a content's second session whose
// receiver opens empty records it (the first caches nothing), and it
// closes as it stands when that session ends, however it ends. The OPEN's
// listen address also decides it: the prefix is replayed only to the
// address the recorder's receiver announced, or, if that receiver
// announced none, to receivers that announce none, which cannot be
// dialed and relay nothing. Receivers of one content that
// exchange symbols thus never share the prefix's ids — a relay holding
// them would have nothing for a receiver being replayed them
// (peer.TestPrefixSwarmReceiverGetsNoRelayedIDs). There is one hop from
// the wire to the working set: each session folds the frames it reads
// into the shared log itself (Orchestrator.fold, as views of its
// channel's buffers — the channel's queue is the only one, and there is
// no receive pool), and the peel stage, the one goroutine that owns the
// fountain decoder, follows that log with a cursor.
//
// # Session lifecycle
//
// The overlay is adaptive — peers are re-selected and connections
// re-made throughout a transfer (§2.1) — so what a session costs before
// its first symbol is paid again and again, and is kept to one round
// trip. Opening the session's channel sends, in one flight, the wire's
// MUX_HELLO (when the open has to bring the wire up) and the
// OPEN_CHANNEL carrying this receiver's content hello. The hello asks for
// the session's first round of requests (Hello.Batch, Hello.Depth): the
// whole batches its window holds when the fetch does not know k yet (the first OPEN; OPENs alongside it ask
// for nothing), what the fetch's budget leaves after. The peer's ACCEPT
// carries the content metadata. A full sender answers the round right
// behind it, clamped to what the decode still needs (or raised to its
// cached prefix's decode point, when it replays one), and its ACCEPT's
// Depth says how many batches that is, so the first symbols arrive in
// the same round trip. A partial sender answers one batch, aimed by the
// Bloom summary the OPEN carries (Hello.Summary) when the fetch holds
// symbols: every batch more would be aimed from a summary that goes
// stale as other senders deliver, and the measured depth takes over from
// there (peer.handshake_seconds records open → ACCEPT,
// peer.first_symbol_seconds open → first symbol folded). A peer that
// turns the first flight down — unknown content, refused, wrong version —
// ends the session terminally on that first dial, uncharged.
//
// From there the session keeps up to K request batches outstanding and
// reads symbols until each batch's DONE. What it may ask is bounded first
// by the fetch: a decode of k blocks takes about k + ⌈4√k⌉ symbols from
// any mix of senders, and the symbols the fetch has requested and not
// yet received, over all its sessions, stay within what its decode still
// needs — a session asks for more only while it has nothing in flight or
// the budget has room for the request within the session's even share
// of it. Its fetch's window (ChannelWindow), read at every batch
// boundary, bounds exactly what it has in flight: a request
// asks for a batch, or for what the window has left when that is less,
// so a scheduler that resizes the window (Orchestrator.SetChannelWindow)
// moves the depth with it. The requests are the only flow control: a
// sender sends what it was asked for, and the wire charges a SYMBOL
// nothing asked for and drops it. Under the window
// K is measured, one rule for every sender (pipeline.go): it starts at
// 1, and each batch asked for over an idle channel — a REQUEST with
// nothing in flight, or the OPEN's round — that comes back full sets it
// to 1 + ⌈rtt/service⌉, its round trip to the first symbol over the time
// from there to its DONE. That is what one round trip holds at the rate
// a batch arrives; more would buy nothing, and would cost a partial
// sender freshness, since its cursor aims every batch in flight from a
// summary that ages while other senders deliver. A window of at most
// one batch (FetchOptions.ChannelWindow ≤ Batch) is stop-and-wait. A
// k=1024 fetch from a full sender takes one round trip, which sets the
// session up and carries what the decode needs (the 4096-frame default
// window holds it), and a second for a stream that needs more, which a
// repeat fetch of the same content, replayed the cached stream, does not
// take; from a partial sender, about three: the OPEN's one batch, which times the
// path, then the rest of the need, and a stream that needs more.
//
// # Failure model
//
// The engine assumes a hostile network: connections stall, die
// mid-frame, deliver corrupted bytes, or belong to peers that never
// send anything useful. Every defense is attributable — misbehavior is
// charged to an address, and repeated misbehavior removes the address
// from the swarm:
//
//   - Deadlines. Every server read and write carries a rolling
//     deadline; sessions apply FetchOptions.Timeout per exchange, and to
//     the open that starts one. A connection that goes quiet is
//     dropped, never waited on forever.
//
//   - Stall watchdog. FetchOptions.StallTimeout arms a watchdog per
//     connection attempt: an attempt that delivers no useful symbol for
//     the window — an open nobody answers, or a channel that stays up
//     and says nothing useful — is cancelled and charged (PenaltyStall,
//     PeerStats.Stalls, an EvStall trace naming the phase). The session
//     keeps its redial budget, and the redial gets a fresh connection:
//     a cancelled open gives the wedged wire up. The watchdog is not a
//     goroutine: it is the attempt's one timer, which also times out an
//     open nobody answers, firing every quarter window and re-armed
//     each time. Unarmed, the timer fires only for an open left
//     unanswered for Timeout, and a session costs one goroutine.
//
//   - Redial backoff. Dropped sessions redial with bounded, jittered
//     exponential backoff (FetchOptions.ReconnectBackoff /
//     MaxReconnectBackoff, at most MaxReconnects attempts). Terminal
//     protocol verdicts — ErrUnknownContent, protocol.ErrVersion, an
//     ACCEPT whose content parameters disagree with the fetch's — and
//     a ban verdict short-circuit the budget: no retry can help, so
//     none is made. That is the whole ledger of a dead address: each
//     failed dial is returned, counted (PeerStats.DialFailures),
//     charged PenaltyDialFail and backed off, until the budget or the
//     ban ends the loop.
//
//   - Penalty box. Dial failures, resets, stalls and corrupt frames
//     charge a decaying per-address score (shared via
//     FetchOptions.Penalties / ServerMux.SetPenalties); past
//     DefaultBanScore the address is banned until the score decays.
//     Gossip admission consults the box, so banned addresses are not
//     admitted at all, and gossip never re-admits an address a session
//     already tried: a failed address is redialed only by its own
//     session, under its backoff and MaxReconnects. The mux refuses
//     inbound connections from banned addresses, caps concurrency
//     (SetMaxConns) with a busy ERROR (protocol.ReasonBusy — uncharged,
//     so a saturated honest peer does not drift toward a ban; a fetch
//     redials it only under FetchOptions.MaxReconnects), and
//     charges corrupt inbound frames to the remote host —
//     plus the HELLO's advertised listen address, but only when its
//     host matches the connection's (an unverified advertisement is
//     attacker-controlled: charging it would let any client frame an
//     innocent peer into a ban). The same verified address is
//     ban-checked after the HELLO, so a peer banned under its dialable
//     address is refused inbound too.
//
//   - Explicit refusals. A refused connection or channel is answered
//     with the canonical "refused" reason (protocol.ReasonRefused) —
//     an ERROR in place of the wire handshake, or a REJECT_CHANNEL —
//     which the refused client classifies as terminal (ErrRefused)
//     without charging the refuser: a silent refusal reads as a dead
//     peer, and two nodes that each misattributed one environmental
//     fault would charge each other into a permanent mutual ban.
//
// Everything above ends work the same way, through three nested
// contexts. The fetch has one, which the context given to Run, the
// completed decode and a rejected symbol all cancel (Orchestrator.finish).
// Each session's is a child of it, cancelled on its own by eviction and
// DropPeer, and each connection attempt's a child of its session's,
// cancelled by the attempt's one timer: when the stall watchdog gives up,
// and when the open goes unanswered for Timeout, which counts as a failed
// dial. Every blocking step takes the innermost one in scope: the
// backoff sleep, the wait for the fabric's dial, the open (peermux
// aborts the half-open and leaves nothing behind), and a read on the
// established channel, which a cancel wakes by expiring the channel's
// deadline — the attempt's timer and an eviction do that themselves, and
// the fetch's end does it for every session through one hook per fetch.
// So a connection attempt costs one context and one timer, and no
// goroutine beside its session's; TestConnectionAttemptAllocs
// pins what a fetch over one fresh connection allocates at both ends,
// the fetch's own orchestrator and decoder included, at 187. A receiver
// owes its senders nothing (§2.3), so abandoning any of them at any
// moment is just a cancel.
//
// The faultnet package injects exactly these failures (latency,
// bandwidth caps, stalls, mid-frame kills, corruption) beneath the
// dialer, and chaos_test.go runs a whole swarm surviving them;
// PeerStats reports the per-session counters (Resets, Stalls,
// CorruptFrames, DialFailures, Banned) the defenses maintain.
package peer
