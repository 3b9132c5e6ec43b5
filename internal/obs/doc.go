// Package obs is the node-wide observability plane: a metrics registry
// of atomic counters, gauges and fixed-bucket histograms that every
// subsystem publishes into, a bounded ring-buffer tracer for lifecycle
// events, and the text/JSON exporters behind icdnode's -debug-addr
// endpoint.
//
// # Naming
//
// Metric names follow subsystem.metric{label}: a dotted subsystem
// prefix, the metric, and an optional comma-separated label set baked
// into the name ("peer.symbols{kind=useful}"). Within one Registry the
// name is the identity — asking for the same name returns the same
// metric, which is how per-fetch and per-server tallies aggregate into
// node-wide totals. The exporters translate the scheme to Prometheus
// families (icd_peer_symbols{kind="useful"}) and flat JSON keys.
//
// # Trace events
//
// The Tracer is a fixed-capacity ring of lifecycle transitions, each an
// (event, subject, detail) triple stamped with a sequence number. The
// Ev* constants are the catalog:
//
//   - session plane: EvDial, EvDialFail, EvHandshake, EvRedial,
//     EvStall, EvBan, EvEvict. EvStall's detail is the phase the
//     connection attempt was in when its window passed without a useful
//     symbol: "open" (the OPEN_CHANNEL was never answered) or "window"
//     (an established channel went quiet).
//   - channel plane: EvChanOpen, EvChanClose
//   - store plane: EvStoreAdmit, EvStoreEvict
//   - gossip plane: EvGossipAdmit, EvGossipDefer, EvGossipPromote
//
// Writers never block: a full ring overwrites the oldest event, and
// Events returns a contiguous oldest-first copy.
//
// # Hot-path contract
//
// Every mutation path is safe on a nil receiver and allocation-free: a
// nil *Registry hands out unregistered but fully functional metrics, so
// instrumented hot paths never branch on whether observability is wired
// up. Counter.Add, Gauge.Set and Histogram.Observe are pinned zero-
// alloc by tests (testing.AllocsPerRun).
//
// # Serving
//
// DebugMux serves a registry over HTTP: /metrics (Prometheus text),
// /vars (flat JSON), /trace (recent events as JSON), and the standard
// net/http/pprof profiles under /debug/pprof. icdnode's node subcommand
// exposes it via -debug-addr.
package obs
