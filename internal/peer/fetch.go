package peer

// fetch.go is the thin public entry of the receive side: FetchOptions /
// FetchResult / PeerStats plus the Fetch and FetchContext wrappers over
// the Orchestrator (orchestrator.go). The one-shot Fetch of earlier
// versions survives as a convenience: it builds an Orchestrator over the
// given addresses and runs it to completion.

import (
	"context"
	"net"
	"time"

	"icd/internal/obs"
	"icd/internal/peermux"
)

// FetchOptions tune a download.
type FetchOptions struct {
	// Batch is the symbols-per-request granularity (default 64) and
	// nothing else: each arrival is folded on its own as it is read.
	Batch int
	// Timeout bounds each network operation — a dial, the open of a
	// session's channel, one exchange on it (default 30s).
	Timeout time.Duration
	// Initial carries encoded symbols already held — resumed downloads
	// and stateless migration (§2.3): nothing else is needed to continue
	// where a previous transfer left off. The fetch adopts the payloads
	// rather than copying them: its working set keeps each as a view of
	// the caller's buffer (FetchResult.Held hands them back), so they must
	// not be modified while the fetch runs or its result is in use — the
	// rule NewFullServer keeps for its content. The map itself is not kept.
	Initial map[uint64][]byte
	// MaxUselessBatches disconnects a peer after this many consecutive
	// batches that contributed nothing (default 4).
	MaxUselessBatches int
	// MaxPeers caps concurrently connected sessions (0 = unlimited).
	// When AddPeer would exceed it, the lowest-utility session (useful
	// symbols per second) is dropped to make room — the adaptive
	// re-ranking of §2.1.
	MaxPeers int
	// MaxReconnects is how many times a failed session redials before
	// giving up (default 0: fail fast, the pre-churn behavior). Every
	// failed dial charges the address's penalty score; an address that
	// crosses the ban threshold ends the loop early.
	MaxReconnects int
	// ReconnectBackoff is the delay before the first redial, doubling
	// per attempt (default 200ms). Each delay is jittered to ½–1½× so
	// many sessions that lost the same peer at once do not redial in
	// lockstep.
	ReconnectBackoff time.Duration
	// MaxReconnectBackoff caps the exponential redial delay (default
	// 5s, and never below ReconnectBackoff).
	MaxReconnectBackoff time.Duration
	// StallTimeout arms the stall watchdog: a connection attempt that
	// delivers no useful symbol for a whole window is cancelled and its
	// address penalized; the session redials on a fresh connection, and
	// repeated stalls escalate to a ban. The window covers the attempt
	// from its start, so it also bounds an open the peer never answers
	// (which otherwise waits out Timeout). 0 disables — collaborative
	// swarms whose peers legitimately start empty should keep it off or
	// generous.
	StallTimeout time.Duration
	// Penalties is the shared misbehavior penalty box: corrupt frames,
	// failed dials, stalls and resets charge the peer's address, and a
	// banned address is refused by gossip admission and never promoted
	// from the directory. Nil creates a private box (scoring is always
	// on).
	Penalties *PenaltyBox
	// Uninformed disables summaries: the fetch sends partial senders no
	// Bloom filter, so each sends its whole log, once (the uninformed
	// baseline).
	Uninformed bool
	// AdvertiseAddr is this node's own dialable listen address. When
	// set, sessions announce it in their HELLO so servers and peers can
	// gossip it onward; it is also the self-address the
	// engine refuses to dial back.
	AdvertiseAddr string
	// Gossip is the node-wide peer directory shared with a live Server
	// (a collaborative node passes the same instance to both). Nil
	// creates a private directory: every fetch gossips.
	Gossip *Gossip
	// Dial overrides the dialer a private fabric dials wires through
	// (tests inject net.Pipe); nil uses TCP. Unused when Fabric is set —
	// a shared fabric was bound to its dialer at construction.
	Dial func(addr string) (net.Conn, error)
	// Fabric is the connection fabric every session rides: one wire per
	// peer, one subchannel per session (sessions call
	// Fabric.Open(ctx, addr, hello) under their connection attempt's
	// context). The fabric owns the dial; a node shares one
	// fabric across all its fetches, collapsing its connection count to
	// one wire per peer. Nil builds a private fabric over Dial for this
	// fetch alone — a lone fetch is a wire with one channel — closed
	// when Run ends.
	Fabric *peermux.Fabric
	// ChannelWindow is the initial per-session window, in symbol frames
	// (0 = peermux.DefaultWindow, which is also the ceiling values clamp
	// to): the most symbols each session may have requested and not yet
	// received. It is the receiver's own policy and writes nothing to the
	// wire; each session reads it when it opens and at every batch
	// boundary, so Orchestrator.SetChannelWindow moves live sessions too —
	// together they are how a node splits a window budget among its
	// fetches. A session asks for a batch at a time, or for what its
	// window has left when that is less, below the bound that matters
	// first: the fetch never has more requested and not yet received
	// than its decode still needs. Under the window every session keeps
	// what one round trip holds at the rate a batch arrives, measured on
	// a batch asked for over an idle channel (from 1 until one is); a
	// window ≤ Batch is stop-and-wait.
	ChannelWindow int

	// Obs is the node-wide observability registry the orchestrator and
	// its sessions publish into (symbol counters, session lifecycle
	// gauges, trace events). Nil disables nothing: metrics still count
	// into unregistered handles, traces are dropped.
	Obs *obs.Registry
}

func (o FetchOptions) withDefaults() FetchOptions {
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxUselessBatches <= 0 {
		o.MaxUselessBatches = 4
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 200 * time.Millisecond
	}
	if o.MaxReconnectBackoff <= 0 {
		o.MaxReconnectBackoff = 5 * time.Second
	}
	if o.MaxReconnectBackoff < o.ReconnectBackoff {
		o.MaxReconnectBackoff = o.ReconnectBackoff
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, o.Timeout)
		}
	}
	return o
}

// PeerStats summarizes one session's contribution.
type PeerStats struct {
	Addr            string
	Full            bool
	SymbolsReceived int
	UsefulSymbols   int
	// Summary is "bloom" when this session sent its partial sender a
	// Bloom filter (the only summary), in the OPEN or later, else "".
	Summary string
	// Utility is the session's score at snapshot time: useful symbols
	// per second of connected life — the ranking AddPeer eviction uses.
	Utility float64
	// Reconnects counts redial attempts after connection failures
	// (whether or not the new connection then succeeded).
	Reconnects int
	// Evicted reports the session was dropped deliberately (DropPeer or
	// utility ranking), as opposed to failing or finishing.
	Evicted bool
	// Discovered reports the session was admitted through gossip
	// (considerDiscovered) rather than given by the caller.
	Discovered bool
	// RefreshesSent counts the SUMMARY frames this session sent, each a
	// refresh — the cost side of the refresh policy.
	RefreshesSent int
	// DialFailures counts dial attempts that never produced a
	// connection (refused or timed out).
	DialFailures int
	// Resets counts established connections that died mid-stream (the
	// session may have redialed afterwards).
	Resets int
	// Stalls counts stall-watchdog resets: whole StallTimeout windows
	// with no useful symbols, on an open or an established channel.
	Stalls int
	// CorruptFrames counts connections dropped over a corrupt frame
	// (bad magic or checksum mismatch).
	CorruptFrames int
	// Banned reports the address sat at or past the penalty box's ban
	// threshold when the session ended.
	Banned bool
	Err    error // terminal connection error, if any
}

// FetchResult is a completed (or partial) download.
type FetchResult struct {
	Data      []byte // reassembled content (nil if incomplete)
	Completed bool
	Info      ContentInfo
	Peers     []PeerStats
	// Held is the encoded-symbol working set at the end — pass it as
	// FetchOptions.Initial to resume (stateless migration). Its payloads
	// are views of the working set's slabs, 64 KiB doubling up to 1 MiB:
	// keeping one keeps its slab alive, so copy the few you keep past the
	// rest.
	Held map[uint64][]byte
	// DistinctSymbols is len(Held); DecodeOverhead is the §5.4.1 metric.
	DistinctSymbols int
	DecodeOverhead  float64
}

// Fetch downloads content contentID from the given peers in parallel and
// reassembles it. At least one peer must be reachable; the set may mix
// full and partial senders. On an incomplete download (all peers
// exhausted) it returns the partial state with Completed=false; callers
// should treat !Completed as retryable with more peers.
func Fetch(addrs []string, contentID uint64, opts FetchOptions) (*FetchResult, error) {
	return FetchContext(context.Background(), addrs, contentID, opts)
}

// FetchContext is Fetch with cancellation: ctx is the fetch's one
// lifetime, so when it is cancelled every session unwinds promptly
// (dials, opens and reads included) and the partial state collected so
// far is returned with ctx's error.
func FetchContext(ctx context.Context, addrs []string, contentID uint64, opts FetchOptions) (*FetchResult, error) {
	o := NewOrchestrator(contentID, opts)
	return o.Run(ctx, addrs...)
}
