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
// returns, and the first Open writes its OPEN_CHANNEL right behind it.
// The demux reader is already running and takes the answer as its first
// frames — the peer's MUX_HELLO, then the ACCEPT_CHANNEL — so a lone
// fetch has its content metadata one round trip after the dial. A full
// sender's data arrives in that same round trip: the OPEN's content
// hello asks for the first round of requests, the sender writes it right
// behind its ACCEPT, and the opener has registered the half-open channel
// and allowed the round's symbols before any of it can arrive, so it
// routes like any later frame. The acceptor needs nothing new for this:
// it reads the MUX_HELLO, answers, and finds the OPEN_CHANNEL buffered
// behind it, so an end that takes strict turns (hello, then open)
// interoperates in either role.
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
// the peer's answer wins. A rejected open leaves the wire's channel
// table, and the acceptor retires a rejected id so that whatever
// the opener wrote on it before the REJECT arrived drains instead of
// being charged.
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
//   - CLOSE_CHANNEL — either side retires a channel; frames that were
//     already in flight for a recently closed id are drained silently
//     (a ring of the last 64 retired ids), not punished.
//
// Gossip needs no wire-level frame: sessions exchange PEERS inside
// their channels like any other content frame.
//
// # Request model
//
// A receiver's own requests are the only flow control. A SYMBOL is
// allowed only when this end asked for it — a REQUEST it wrote, or the
// first round its OPEN's hello carried (Hello.Batch × Hello.Depth) — and
// Channel.Write counts what each outgoing REQUEST asks for before the
// REQUEST leaves, so its answer is allowed however soon it arrives. The
// peer's ACCEPT says in its Depth how many batches of that round it
// answers, and the reader lowers the round to those (Hello.Batch × the
// ACCEPT's Depth) before it routes anything behind the ACCEPT: a partial
// sender answers one batch and says 1, and the batches it does not answer
// are not left allowed with nothing counting them in flight. A SYMBOL
// nothing asked for is charged (WeightViolation) and dropped, and the
// wire survives; so is a frame for an unknown channel id, or of a retired
// type (CREDIT, 18, until version 13), or any frame past a channel's
// queue bound (DefaultWindow + 128 frames unread). Control frames always
// flow, and a sender never waits: it sends what it was asked for.
//
// A channel has no window. How much a session may have asked for and not
// yet received is the receiver's policy, kept by the peer package
// (peer/pipeline.go), which reads its fetch's window at each batch
// boundary; the channel only counts what was asked and refuses what was
// not. DefaultWindow is the ceiling of that policy, and the channel's
// queue bound and a server's clamp on the OPEN's round are sized from it.
//
// # Channel lifecycle
//
// Open (dialer picks id, sends OPEN_CHANNEL, its first round of requests
// included) → Accept/Reject (acceptor answers, and a full sender writes
// its answer to the round behind its ACCEPT) → established
// (Channel is a frame source via Next and an io.Writer that re-frames
// one serialized content frame per Write into an envelope, and a
// protocol.SymbolWriter that frames a SYMBOL's envelope straight from its
// id and payload) → closed
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
// half-open id drains, and its reference is dropped — so a wire whose only user gave up (a wedged
// one, whose peer will never answer) is closed and the next open dials
// afresh, and a dial that lands after its last waiter left is closed on
// the spot. The peer is not told:
// if it does answer later, its frames drain, and its side of the
// channel ends with the wire or on its own timeout.
//
// How many request batches ride on a channel at once is the peer
// package's business (peer/pipeline.go): bounded first by what the
// fetch's decode still needs, then by the session's window, at most
// DefaultWindow (4096 frames), which is large enough that the need, not
// the window, sizes a typical fetch's first flight.
//
// # Batches
//
// A channel's envelopes do not go to the conn one by one. Write appends
// each to the channel's pending batch (a pooled 64 KiB slab, held only
// while a batch is open) and writes the batch in one conn write, in
// order, when a frame other than SYMBOL ends it — DONE ends every answer
// to a REQUEST, so one REQUEST is one write — when the next envelope
// would take it past 64 KiB, or at Close, ahead of the CLOSE_CHANNEL. The
// wire's reader reads ahead in the same unit: one conn read takes in
// everything that has arrived, up to 64 KiB, and the frames in it are
// routed without another read, so a session finds its queue holding the
// batch and drains it without parking.
//
// A channel's inbound queue is its receive slabs, from the same pool: the
// reader appends each frame it routes to the channel's last slab, behind
// a 5-byte header (type, length), and starts a fresh slab when the frame
// does not fit (a frame over 64 KiB gets one of its own). Next reads the
// first slab from a head offset; a slab goes back to the pool once Next
// has read past it, and when the queue runs empty its one slab is reset
// in place, so a consumer that keeps up touches one slab, and a queue a
// whole 4096-frame window deep costs an allocation per slab, not per
// frame. A channel holds no slab before its first frame and gives every
// one back at Close; its queue bound is a count, not an allocation. A
// wire that dies routes nothing of what its reader still holds, and
// charges nothing for it.
//
// # What a wire and a channel hold
//
// A wire is its conn, its FrameReader, one channel table and two
// signals: one closed when the peer's MUX_HELLO arrives, one when the
// wire dies. The table holds every channel from the moment it is
// claimed, a half-open one waiting for the peer's answer included, and
// is a slice searched in order (a wire carries a handful of channels)
// that starts in an array inside the Wire; each row holds its channel's
// id beside it, so a search reads no channel. BenchmarkRoute times a
// routed frame on a wire carrying one channel and DefaultMaxChannels,
// the frame going to the one the search reaches last. The ids it
// retires drain through a fixed ring inside the Wire too, and a wire
// that dies hands its table over to fail its channels rather than
// rebuilding it.
//
// A channel is its inbound queue (receive slabs, none until a frame
// arrives), its pending batch, and two signals: ready, a one-token
// wake-up that a routed frame, a deadline moved earlier or the peer's
// answer to the open puts there, and done, closed when the channel
// ends (the peer closed it, the wire died, or Close ran). An open's
// answer rides its channel: the reader records the ACCEPT or REJECT on
// it and puts the token in ready, so an open costs no reply channel. A
// Next that blocks under a deadline takes a stopped timer from a pool
// for that wait and gives it back, so a channel holds no timer.
//
// TestWireLifeAllocs pins a wire's whole life over net.Pipe, both ends
// counted — Dial and Accept, one channel opened with a round that the
// acceptor answers behind its ACCEPT, read to its DONE, then the channel
// and the wire closed — at 50 allocations, the pipe's own among them.
package peermux
