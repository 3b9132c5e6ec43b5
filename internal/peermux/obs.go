package peermux

// obs.go binds a wire to the node-wide observability registry: channel
// population, inbound queue depths, and the lifecycle trace (channel
// open/close). A wire
// without a registry pays one nil check per lifecycle event and a
// nil-receiver no-op per frame — nothing else.

import (
	"fmt"

	"icd/internal/obs"
)

// wireMetrics caches the registry handles a wire updates. The zero
// value (no registry configured) is fully operational: every handle is
// nil and the obs package treats nil metrics as no-ops.
type wireMetrics struct {
	chansOpen  *obs.Gauge     // peermux.channels{state=open}
	opened     *obs.Counter   // peermux.channels{event=opened}
	closed     *obs.Counter   // peermux.channels{event=closed}
	rejected   *obs.Counter   // peermux.channels{event=rejected}
	queueDepth *obs.Histogram // peermux.queue_depth
}

func newWireMetrics(r *obs.Registry) wireMetrics {
	if r == nil {
		return wireMetrics{}
	}
	return wireMetrics{
		chansOpen:  r.Gauge("peermux.channels{state=open}"),
		opened:     r.Counter("peermux.channels{event=opened}"),
		closed:     r.Counter("peermux.channels{event=closed}"),
		rejected:   r.Counter("peermux.channels{event=rejected}"),
		queueDepth: r.Histogram("peermux.queue_depth", obs.CountBuckets),
	}
}

// noteChanOpen records a channel both ends agreed on — the point a
// subchannel becomes live, symmetric between the dialing side
// (OpenContext, on the ACCEPT) and the accepting side (Accept), both via
// markOpen. An open the peer rejects never counts as opened.
func (w *Wire) noteChanOpen(id uint16) {
	w.met.opened.Add(1)
	w.met.chansOpen.Add(1)
	if r := w.cfg.Obs; r != nil {
		r.Trace(obs.EvChanOpen, w.raddr, fmt.Sprintf("id=%d", id))
	}
}

// noteChanClose mirrors noteChanOpen when the channel retires (local
// close, remote close, or wire death) — exactly once per live channel,
// anchored on the same live/retired flags retire settles.
func (w *Wire) noteChanClose(id uint16) {
	w.met.closed.Add(1)
	w.met.chansOpen.Add(-1)
	if r := w.cfg.Obs; r != nil {
		r.Trace(obs.EvChanClose, w.raddr, fmt.Sprintf("id=%d", id))
	}
}
