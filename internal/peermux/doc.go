// Package peermux is the connection fabric, the only session
// transport: every content session a node runs against one peer is a
// subchannel of a single framed connection, so connection count is
// O(peers), not O(peers × contents). A lone fetch is the degenerate
// case — a wire with one channel.
//
// # Handshake
//
// A connection opens with a MUX_HELLO exchange (each side announces its
// channel capacity and dialable listen address); content HELLOs travel
// per channel. The exchange costs one round trip, not one per layer,
// because the dialer sends everything that does not depend on the
// peer's answer in its first flight: Dial writes the MUX_HELLO and
// returns, and the first Open writes its OPEN_CHANNEL and that
// channel's initial CREDIT right behind it. The demux reader is already
// running and takes the answer as its first frames — the peer's
// MUX_HELLO, then the ACCEPT_CHANNEL and CREDIT — so a lone fetch has
// its content metadata and a full window granted both ways one round
// trip after the dial. A full sender's data arrives in that same round
// trip: the OPEN's content hello asks for the first round of requests,
// the sender writes it right behind its ACCEPT, and the opener has
// registered the half-open channel and granted its window before any of
// it can arrive, so it routes like any later frame. The acceptor needs
// nothing new for this: it reads the MUX_HELLO, answers, and finds the
// OPEN_CHANNEL and CREDIT buffered behind it. The frame vocabulary is
// what it was, so an end that still takes strict turns (hello, then
// open, then credit) interoperates in either role.
//
// What waits for the answer: the peer's channel limit is not known
// until its MUX_HELLO arrives, so until then exactly one channel may be
// open on a wire; further opens queue behind the hello and are then
// bound by the announced MaxChannels as before. A peer that answers the
// first flight with an ERROR instead (version reject, refused, busy), a
// corrupt stream, or anything that is not a MUX_HELLO kills the wire,
// and every pending open returns that verdict with its type intact
// (protocol.ErrVersion, *RemoteError, protocol.ErrCorrupt) — also when
// a first-flight write has meanwhile failed on the closed connection:
// the peer's answer wins. A rejected open hands back the window its
// early CREDIT reserved, and the acceptor retires a rejected id so that
// CREDIT drains instead of being charged.
//
// # Wire layout
//
// After the handshake the stream carries:
//
//   - OPEN_CHANNEL / ACCEPT_CHANNEL / REJECT_CHANNEL — subchannel
//     negotiation. The opener picks an odd channel id and attaches its
//     content hello (its first round of requests included); the
//     acceptor answers with its own hello (content metadata) or a
//     rejection reusing the canonical ERROR vocabulary ("unknown
//     content", "refused", "busy").
//   - MUX — the envelope: channel id (uint16) + inner frame type
//     (uint8) + inner payload, under the outer frame's single CRC.
//     Every content frame type (SYMBOL, SUMMARY, REQUEST, DONE, ERROR,
//     ...) travels inside envelopes unchanged, so the
//     per-channel state machines read and write plain content frames.
//     Multiplexing costs 3 bytes per frame.
//   - CREDIT — per-channel flow control (below).
//   - CLOSE_CHANNEL — either side retires a channel; frames that were
//     already in flight for a recently closed id are drained silently
//     (a bounded set of retired ids), not punished.
//
// Gossip needs no wire-level frame: sessions exchange PEERS inside
// their channels like any other content frame.
//
// # Credit model
//
// Only SYMBOL frames — the one frame type that bears a symbol — consume
// credits; control traffic always flows. The receiving side of a channel grants
// an initial window of credits at channel establishment, the sender
// spends one credit per symbol frame and blocks when the window is
// exhausted, and the receiver replenishes (CREDIT frames carrying the
// drained count) as its consumer actually drains symbols off the
// channel queue. A slow consumer therefore self-throttles exactly its
// own channel — the wire keeps moving and sibling channels keep their
// throughput — while a sender that overruns its window, or targets an
// unknown channel id, is charged to the penalty box via Config.Penalize
// and the offending frame is dropped without wedging the stream.
//
// Windows are live-resizable scheduling currency, not a fixed
// constant. Channel.SetWindow retargets a channel mid-transfer: a grow
// grants the delta as an unsolicited CREDIT immediately (after paying
// down any pending shrink), a shrink accumulates a deficit that is
// paid by withholding replenishment as frames drain — credits already
// granted are never revoked, so the sender's view of its window only
// ever tells the truth. OpenWindow opens a channel at a chosen
// initial window, and Config.WireWindow imposes a per-wire aggregate
// ceiling: grants for new channels and grows are clamped to the
// remaining headroom (Wire.WindowSum reads the ledger), never below a
// 1-frame floor, and a channel's outstanding grant is retired back to
// the ledger exactly once when it closes or fails. The multi-content
// node uses all three together (node.Options.WindowBudget) to split
// one frame budget evenly among its fetches, re-split when a fetch
// starts or ends.
//
// # Channel lifecycle
//
// Open (dialer picks id, sends OPEN_CHANNEL and its initial CREDIT) →
// Accept/Reject (acceptor answers, granting its own initial credits on
// accept) → established
// (Channel is a frame source via Next and an io.Writer that re-frames
// one serialized content frame per Write into an envelope) → closed
// (either side's CLOSE_CHANNEL, a wire failure, or Channel.Close; the
// id then drains).
//
// A Fabric refcounts wires: an open holds a reference from the moment
// it asks, the channel it gets keeps it until Close, and the last
// reference given back closes the wire. The fabric owns the dial — one
// goroutine per wire being brought up, whichever opener asked first —
// and every opener toward that address waits for it or for its own
// context, so one opener leaving never fails the rest. An open takes a
// context.Context and nothing else bounds it: when the context ends
// before the peer answered, the open returns the context's error, the
// half-open id drains, the window its early CREDIT reserved goes back
// to the wire's ledger, and its reference is dropped — so a wire whose
// only user gave up (a wedged one, whose peer will never answer) is
// closed and the next open dials afresh, and a dial that lands after
// its last waiter left is closed on the spot. The peer is not told:
// if it does answer later, its frames drain, and its side of the
// channel ends with the wire or on its own timeout.
//
// How many request batches ride on a channel at once is the peer
// package's business (peer/pipeline.go): bounded first by what the
// fetch's decode still needs, and capped by what comes from here, the
// batches the channel's granted window admits, Window()/batch. The
// default window (DefaultWindow, 4096 frames) is large enough that the
// need, not the window, sizes a typical fetch's first flight.
//
// # Batches
//
// A channel's envelopes do not go to the conn one by one. Write appends
// each to the channel's pending batch (a pooled buffer, held only while a
// batch is open) and writes the batch in one conn write, in order, when a
// frame other than SYMBOL ends it — DONE ends every answer to a REQUEST,
// so one REQUEST is one write — when a SYMBOL finds no credit (the peer
// grants credit only for frames it has read, so the batch goes out
// before the wait), when the next envelope would take it past 64 KiB, or
// at Close, ahead of the CLOSE_CHANNEL. The wire's reader reads ahead in
// the same unit: one conn read takes in everything that has arrived, up
// to 64 KiB, and the frames in it are routed without another read, so a
// session finds its queue holding the batch and drains it without
// parking. What it routes it copies into the channel's receive slab: a
// channel's inbound frames lie back to back in pooled 64 KiB slabs, and a
// slab goes back to the pool once Next has moved past it (or at Close),
// so a queue a whole 4096-frame window deep costs an allocation per slab,
// not per frame. A wire that dies routes nothing of what its reader still
// holds, and charges nothing for it.
package peermux
