package node

// obs.go binds the node to its observability registry: store occupancy
// and eviction lifecycle, the slots and window frames the fetches in
// flight hold between them (the sum of their shares, max(budget, nf)),
// and callback gauges over state the node already tracks (banned peers,
// fabric credit in flight). A node always has a registry
// — New creates one when Options.Obs is nil — so every layer below
// (mux, fabric, each fetch's orchestrator) shares a single snapshot.

import (
	"fmt"

	"icd/internal/obs"
)

// nodeMetrics caches the registry handles the node updates itself;
// layers below hold their own.
type nodeMetrics struct {
	storeAdmits    *obs.Counter // node.store{event=admit}
	storeEvictions *obs.Counter // node.store{event=evict}
	slotsAlloc     *obs.Gauge   // node.slots_allocated
	windowAlloc    *obs.Gauge   // node.window_allocated
}

func newNodeMetrics(r *obs.Registry) nodeMetrics {
	return nodeMetrics{
		storeAdmits:    r.Counter("node.store{event=admit}"),
		storeEvictions: r.Counter("node.store{event=evict}"),
		slotsAlloc:     r.Gauge("node.slots_allocated"),
		windowAlloc:    r.Gauge("node.window_allocated"),
	}
}

// registerGauges installs the callback gauges that read node state on
// demand at snapshot time instead of being pushed on a hot path.
func (n *Node) registerGauges() {
	n.obs.GaugeFunc("node.store_bytes", func() int64 { return n.store.Usage() })
	n.obs.GaugeFunc("node.store_contents", func() int64 { return int64(n.store.Len()) })
	n.obs.GaugeFunc("node.banned_peers", func() int64 { return int64(n.penalties.BannedCount()) })
	n.obs.GaugeFunc("node.fetches_active", func() int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return int64(len(n.fetches))
	})
	n.obs.GaugeFunc("node.window_inflight", func() int64 { return int64(n.fabric.TotalWindow()) })
	n.obs.GaugeFunc("node.wires", func() int64 { return int64(n.fabric.Wires()) })
}

// traceContent records a store lifecycle event for one content id.
func (n *Node) traceContent(event string, id uint64, detail string) {
	n.obs.Trace(event, fmt.Sprintf("%#x", id), detail)
}
