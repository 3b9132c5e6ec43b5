// Package peermux is the connection fabric, the only session
// transport: every content session a node runs against one peer is a
// subchannel of a single framed connection, so connection count is
// O(peers), not O(peers × contents). A lone fetch is the degenerate
// case — a wire with one channel.
//
// # Wire layout
//
// A connection opens with a MUX_HELLO exchange (each side announces its
// channel capacity and dialable listen address); content HELLOs travel
// per channel. After that the stream carries:
//
//   - OPEN_CHANNEL / ACCEPT_CHANNEL / REJECT_CHANNEL — subchannel
//     negotiation. The opener picks an odd channel id and attaches its
//     content HELLO; the acceptor answers with its own HELLO (content
//     metadata) or a rejection reusing the canonical ERROR vocabulary
//     ("unknown content", "refused", "busy").
//   - MUX — the envelope: channel id (uint16) + inner frame type
//     (uint8) + inner payload, under the outer frame's single CRC.
//     Every content frame type (SYMBOL, RECODED, SUMMARY, REQUEST,
//     DONE, ERROR, ...) travels inside envelopes unchanged, so the
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
// Only symbol-bearing frames (SYMBOL, RECODED) consume credits;
// control traffic always flows. The receiving side of a channel grants
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
// ever tells the truth. OpenWindow opens a channel at a non-default
// initial window, and Config.WireWindow imposes a per-wire aggregate
// ceiling: grants for new channels and grows are clamped to the
// remaining headroom (Wire.WindowSum reads the ledger), never below a
// 1-frame floor, and a channel's outstanding grant is retired back to
// the ledger exactly once when it closes or fails. The multi-content
// node uses all three together (node.Options.WindowBudget) to
// re-divide one frame budget across its fetches by marginal utility
// every housekeeping tick.
//
// # Channel lifecycle
//
// Open (dialer picks id, sends OPEN_CHANNEL) → Accept/Reject (acceptor
// answers; both sides grant initial credits on accept) → established
// (Channel is a frame source via Next and an io.Writer that re-frames
// one serialized content frame per Write into an envelope) → closed
// (either side's CLOSE_CHANNEL, a wire failure, or Channel.Close; the
// id then drains). A Fabric refcounts channels per wire: the first
// Open to an address dials and shakes hands, later Opens share the
// wire, and the last Close tears it down.
//
// The pipelined AIMD request ramp that rides on these channels lives in
// the peer package (see peer.FetchOptions.PipelineDepth): sessions
// keep K request batches outstanding, growing K additively
// while batches deliver useful symbols and halving it when the
// duplicate rate spikes.
package peermux
