package peer

// obs.go binds the fetch and serve planes to the node-wide
// observability registry (internal/obs). Every handle is resolved once
// at construction — hot paths touch prebuilt counters, never the
// registry map — and a nil registry yields unregistered but functional
// metrics, so instrumentation costs one atomic op whether or not a
// node wired it up.

import "icd/internal/obs"

// fetchMetrics are the orchestrator/session plane's registry handles.
// Metrics are node-wide aggregates: every orchestrator sharing a
// registry (all fetches of one node) feeds the same counters.
type fetchMetrics struct {
	received      *obs.Counter // peer.symbols{kind=received}
	useful        *obs.Counter // peer.symbols{kind=useful}
	live          *obs.Gauge   // peer.sessions{state=live}
	started       *obs.Counter // peer.sessions{event=started}
	evicted       *obs.Counter // peer.sessions{event=evicted}
	redials       *obs.Counter // peer.redials
	dialFailures  *obs.Counter // peer.dial_failures
	stalls        *obs.Counter // peer.stalls
	resets        *obs.Counter // peer.resets
	corrupt       *obs.Counter // peer.corrupt_frames
	refreshes     *obs.Counter // peer.refreshes_sent
	bans          *obs.Counter // peer.bans
	gossipAdmit   *obs.Counter // peer.gossip{event=admit}
	gossipDefer   *obs.Counter // peer.gossip{event=defer}
	gossipPromote *obs.Counter // peer.gossip{event=promote}
	// The two ways an arrival can be a duplicate, in symbols; together
	// they are received − useful. before_summary: the id sat in the stretch
	// of the log the session's last summary covered (what the fetch held
	// when the session began, until a refresh), so the sender sent against
	// a summary older than the arrival, ignored it, or was sent none.
	// since_summary: another session brought the id after that — a
	// cross-sender collision no summary could have prevented.
	dupBefore *obs.Counter // peer.duplicates{cause=before_summary}
	dupSince  *obs.Counter // peer.duplicates{cause=since_summary}
	// handshake is one observation per session that came up: channel
	// open issued → ACCEPT received, the dial and wire handshake included
	// when the open had to bring the wire up.
	handshake *obs.Histogram // peer.handshake_seconds
	// firstSymbol is one observation per connection attempt that folded a
	// symbol: channel open issued → its first SYMBOL folded. Against a full
	// sender, which answers the OPEN's requests behind its ACCEPT, it is
	// about one round trip, the handshake's own.
	firstSymbol *obs.Histogram // peer.first_symbol_seconds
}

func newFetchMetrics(r *obs.Registry) fetchMetrics {
	return fetchMetrics{
		received:      r.Counter("peer.symbols{kind=received}"),
		useful:        r.Counter("peer.symbols{kind=useful}"),
		live:          r.Gauge("peer.sessions{state=live}"),
		started:       r.Counter("peer.sessions{event=started}"),
		evicted:       r.Counter("peer.sessions{event=evicted}"),
		redials:       r.Counter("peer.redials"),
		dialFailures:  r.Counter("peer.dial_failures"),
		stalls:        r.Counter("peer.stalls"),
		resets:        r.Counter("peer.resets"),
		corrupt:       r.Counter("peer.corrupt_frames"),
		refreshes:     r.Counter("peer.refreshes_sent"),
		bans:          r.Counter("peer.bans"),
		gossipAdmit:   r.Counter("peer.gossip{event=admit}"),
		gossipDefer:   r.Counter("peer.gossip{event=defer}"),
		gossipPromote: r.Counter("peer.gossip{event=promote}"),
		dupBefore:     r.Counter("peer.duplicates{cause=before_summary}"),
		dupSince:      r.Counter("peer.duplicates{cause=since_summary}"),
		handshake:     r.Histogram("peer.handshake_seconds", obs.SecondsBuckets),
		firstSymbol:   r.Histogram("peer.first_symbol_seconds", obs.SecondsBuckets),
	}
}

// trace records one lifecycle event in the orchestrator's registry
// ring (no-op without one).
func (o *Orchestrator) trace(event, subject, detail string) {
	o.obs.Trace(event, subject, detail)
}

// serveMetrics are a ServerMux's serving-plane counters, the one set the
// sessions it serves add into: private handles (newServeMetrics(nil))
// until SetObs resolves them from a node's registry, the one source of
// the counts, where they are node totals.
type serveMetrics struct {
	connections *obs.Counter // serve.connections
	symbolsSent *obs.Counter // serve.symbols_sent
	// symbolsEncoded counts the symbols full senders' encoders produced,
	// cached or not; 1 − encoded/sent is their prefix caches' hit rate.
	symbolsEncoded *obs.Counter // serve.symbols_encoded
	rejected       *obs.Counter // serve.rejected
	malformed      *obs.Counter // serve.malformed
	// dryBatches counts the REQUESTs a partial sender's cursor answered
	// with a bare DONE: nothing unsent that the receiver's summary leaves
	// missing.
	dryBatches *obs.Counter // serve.batches{kind=dry}
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		connections:    r.Counter("serve.connections"),
		symbolsSent:    r.Counter("serve.symbols_sent"),
		symbolsEncoded: r.Counter("serve.symbols_encoded"),
		rejected:       r.Counter("serve.rejected"),
		malformed:      r.Counter("serve.malformed"),
		dryBatches:     r.Counter("serve.batches{kind=dry}"),
	}
}

// muxMetrics are the inbound router's counters, private or resolved
// from a registry the same way as serveMetrics.
type muxMetrics struct {
	connections *obs.Counter // mux.connections
	rejected    *obs.Counter // mux.rejected
	busy        *obs.Counter // mux.busy
	banned      *obs.Counter // mux.banned
	malformed   *obs.Counter // mux.malformed
}

func newMuxMetrics(r *obs.Registry) muxMetrics {
	return muxMetrics{
		connections: r.Counter("mux.connections"),
		rejected:    r.Counter("mux.rejected"),
		busy:        r.Counter("mux.busy"),
		banned:      r.Counter("mux.banned"),
		malformed:   r.Counter("mux.malformed"),
	}
}
