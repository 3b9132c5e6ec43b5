package scenario

// sample.go is the lab's live telemetry: on a fixed cadence the runner
// snapshots every live node's observability registry and folds the
// node-level tallies into one swarm-wide time-series — the convergence
// *curve* (useful vs duplicate symbol rate, live connections, banned
// peers, window in flight) instead of only endpoint scalars.

import (
	"time"

	"icd/internal/node"
)

// Sample is one cadence tick of the swarm-wide time-series.
type Sample struct {
	// Offset is the tick's time since run start.
	Offset time.Duration
	// UsefulPerSec and DuplicatePerSec are the swarm-aggregate symbol
	// rates over the interval since the previous sample: symbols that
	// advanced some decoder vs symbols received redundantly.
	UsefulPerSec    float64
	DuplicatePerSec float64
	// LiveConns is the swarm's total live fetch sessions at the tick.
	LiveConns int64
	// BannedPeers sums every node's currently-banned address count.
	BannedPeers int64
	// WindowInFlight is what the swarm's fetches have requested and not
	// yet received, summed over every node, in symbol frames.
	WindowInFlight int64
}

// swarmTotals is one tick's raw sum over every live node's registry.
type swarmTotals struct {
	useful, received, live, banned, window int64
}

// foldNodes sums the sampled metric families across node registries.
func foldNodes(nodes []*node.Node) swarmTotals {
	var t swarmTotals
	for _, n := range nodes {
		for _, m := range n.Obs().Snapshot() {
			switch m.Name {
			case "peer.symbols{kind=useful}":
				t.useful += m.Value
			case "peer.symbols{kind=received}":
				t.received += m.Value
			case "peer.sessions{state=live}":
				t.live += m.Value
			case "node.banned_peers":
				t.banned += m.Value
			case "node.window_inflight":
				t.window += m.Value
			}
		}
	}
	return t
}

// sampleSwarm runs the sampling loop until stopc closes, taking one
// final sample on the way out, and returns the folded series. nodes
// returns the currently live population (churn joins and leaves show up
// as what they are: rate and connection-count movements).
func sampleSwarm(every time.Duration, start time.Time, stopc <-chan struct{}, nodes func() []*node.Node) []Sample {
	var series []Sample
	var prev swarmTotals
	prevAt := start
	tick := time.NewTicker(every)
	defer tick.Stop()
	record := func(now time.Time) {
		t := foldNodes(nodes())
		dt := now.Sub(prevAt).Seconds()
		s := Sample{
			Offset:         now.Sub(start),
			LiveConns:      t.live,
			BannedPeers:    t.banned,
			WindowInFlight: t.window,
		}
		if dt > 0 {
			// A churned-out node takes its counters with it, so a delta
			// can dip negative across a leave; clamp — the series reads
			// as the surviving swarm's rate.
			if d := t.useful - prev.useful; d > 0 {
				s.UsefulPerSec = float64(d) / dt
			}
			if d := (t.received - t.useful) - (prev.received - prev.useful); d > 0 {
				s.DuplicatePerSec = float64(d) / dt
			}
		}
		prev, prevAt = t, now
		series = append(series, s)
	}
	for {
		select {
		case now := <-tick.C:
			record(now)
		case <-stopc:
			record(time.Now())
			return series
		}
	}
}
