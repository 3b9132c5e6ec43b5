package experiment

// gossip.go measures gossip peer discovery and the adaptive
// SUMMARY_REFRESH cadence end to end: an N-node swarm bootstrapped from
// a single seed address must self-assemble the full mesh (convergence),
// and the adaptive duplicate-rate controller must beat the fixed
// refresh cadence on duplicate symbols without costing wall clock. Both
// claims are reported as table rows CI archives (BENCH_pr4.json carries
// the convergence row).

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"icd/internal/peer"
)

// GossipSwarmConfig sizes one self-assembling swarm run.
type GossipSwarmConfig struct {
	Nodes          int    // collaborative nodes, each given only the seed address
	N              int    // content blocks
	BlockSize      int    // bytes per block
	Seed           uint64 // drives content and symbol streams
	Adaptive       bool   // adaptive refresh cadence vs fixed RefreshBatches
	RefreshBatches int    // base refresh cadence (fixed mode uses it as-is)
}

// GossipSwarmResult aggregates one swarm run.
type GossipSwarmResult struct {
	Elapsed          time.Duration // until every node completed
	MeanPeersPerNode float64       // sessions that delivered ≥1 symbol, per node
	Discovered       int           // gossip-admitted sessions across the swarm
	DiscoveredUseful int           // ... of those, ones that contributed useful symbols
	DupRate          float64       // 1 - useful/received over every session
	Refreshes        int           // SUMMARY_REFRESH frames sent across the swarm
}

// RunGossipSwarm boots Nodes collaborative nodes that each know only
// the seed's address: every node advertises its own synthetic listen
// address, the seed relays what it has heard, and discovered peers are
// admitted through the orchestrator's gossip path. It returns once
// every node holds verified content.
func RunGossipSwarm(cfg GossipSwarmConfig) (GossipSwarmResult, error) {
	var res GossipSwarmResult
	fix, err := BuildSwarmFixture(cfg.N, cfg.BlockSize, cfg.Seed)
	if err != nil {
		return res, err
	}
	seedSrv, err := peer.NewFullServer(fix.Info, fix.Content)
	if err != nil {
		return res, err
	}
	// A mildly throttled seed makes discovery matter: nodes that only
	// ever talk to the seed pay for it, nodes that find each other
	// exchange at pipe speed.
	fix.AddServer("seed", seedSrv, 200*time.Microsecond)

	type outcome struct {
		res *peer.FetchResult
		err error
	}
	outs := make([]outcome, cfg.Nodes)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Nodes; i++ {
		addr := fmt.Sprintf("N%d", i+1)
		gossip := peer.NewGossip(addr)
		o := peer.NewOrchestrator(fix.Info.ID, peer.FetchOptions{
			Batch:             8,
			Timeout:           time.Minute,
			MaxUselessBatches: 1 << 20, // peers start empty; patience, not eviction
			MaxPeers:          cfg.Nodes + 1,
			MaxReconnects:     10, // discovered nodes may not be listening yet
			ReconnectBackoff:  2 * time.Millisecond,
			AdvertiseAddr:     addr,
			Gossip:            gossip,
			AdaptiveRefresh:   cfg.Adaptive,
			RefreshBatches:    cfg.RefreshBatches,
			RefreshGrowth:     0.02,
			Dial:              fix.Dial,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := o.Run(context.Background(), "seed")
			outs[i] = outcome{r, err}
		}(i)
		// The node serves its growing working set as soon as the first
		// handshake fixes the metadata — from then on it is dialable and
		// worth gossiping about.
		go func() {
			info, err := o.WaitInfo(context.Background())
			if err != nil {
				return
			}
			live, err := peer.NewLiveServer(info, o)
			if err != nil {
				return
			}
			live.SetGossip(gossip)
			fix.AddServer(addr, live, 0)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	received, useful, contributing := 0, 0, 0
	for i, out := range outs {
		if out.err != nil {
			return res, fmt.Errorf("experiment: gossip node %d: %w", i+1, out.err)
		}
		if !bytes.Equal(out.res.Data, fix.Content) {
			return res, fmt.Errorf("experiment: gossip node %d content mismatch", i+1)
		}
		for _, p := range out.res.Peers {
			received += p.SymbolsReceived
			useful += p.UsefulSymbols
			res.Refreshes += p.RefreshesSent
			if p.SymbolsReceived > 0 {
				contributing++
			}
			if p.Discovered {
				res.Discovered++
				if p.UsefulSymbols > 0 {
					res.DiscoveredUseful++
				}
			}
		}
	}
	res.MeanPeersPerNode = float64(contributing) / float64(cfg.Nodes)
	if received > 0 {
		res.DupRate = 1 - float64(useful)/float64(received)
	}
	return res, nil
}

// overlapFetch is the controlled adaptive-vs-fixed comparison: one
// receiver draining three heavily overlapping partial senders. Every
// symbol a sender transmits from a stale recoding domain is a likely
// duplicate, so the refresh policy directly sets the duplicate bill.
func overlapFetch(n, blockSize int, seed uint64, adaptive bool, refreshBatches int) (*peer.FetchResult, time.Duration, error) {
	fix, err := BuildSwarmFixture(n, blockSize, seed)
	if err != nil {
		return nil, 0, err
	}
	pool := 2 * n
	ids, payloads, err := fix.EncodedPrefix(pool, seed+3)
	if err != nil {
		return nil, 0, err
	}
	ranges := [][2]int{{0, pool * 6 / 10}, {pool * 2 / 10, pool * 8 / 10}, {pool * 4 / 10, pool}}
	for i, r := range ranges {
		srv, err := peer.NewPartialServer(fix.Info, subset(ids, payloads, r[0], r[1]))
		if err != nil {
			return nil, 0, err
		}
		fix.AddServer(fmt.Sprintf("P%d", i+1), srv, 0)
	}
	return DriveSwarmFetch(fix, []string{"P1", "P2", "P3"}, peer.FetchOptions{
		Batch:             16,
		Timeout:           time.Minute,
		MaxUselessBatches: 1 << 20,
		AdaptiveRefresh:   adaptive,
		RefreshBatches:    refreshBatches,
		RefreshGrowth:     0.05,
	})
}

// GossipSwarm is the PR 4 control-plane measurement: swarm
// self-assembly from a single seed address, and duplicate-rate /
// wall-clock cost of the fixed vs adaptive refresh cadence — in both
// the controlled 3-overlapping-partials topology and the full gossip
// swarm.
func GossipSwarm(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		ID:     "gossip",
		Title:  "gossip discovery + adaptive refresh (net.Pipe transports)",
		Header: []string{"scenario", "peers/node", "discovered", "dup-rate", "refreshes", "elapsed"},
	}

	n := o.N
	if n > 600 {
		n = 600 // control-plane rows measure policy, not box patience
	}
	const refreshBatches = 16
	for _, adaptive := range []bool{false, true} {
		res, elapsed, err := overlapFetch(n, 64, o.Seed+11, adaptive, refreshBatches)
		if err != nil {
			return t, err
		}
		received, useful, refreshes := 0, 0, 0
		for _, p := range res.Peers {
			received += p.SymbolsReceived
			useful += p.UsefulSymbols
			refreshes += p.RefreshesSent
		}
		name := "1 rx / 3 overlap partials, fixed"
		if adaptive {
			name = "1 rx / 3 overlap partials, adaptive"
		}
		t.Rows = append(t.Rows, []string{name, "-", "-",
			fmt.Sprintf("%.1f%%", 100*(1-float64(useful)/float64(received))),
			fmt.Sprintf("%d", refreshes),
			elapsed.Round(time.Millisecond).String()})
	}

	swarmN := n
	if swarmN > 240 {
		swarmN = 240 // the throttled seed dominates; keep the rows quick
	}
	for _, adaptive := range []bool{false, true} {
		res, err := RunGossipSwarm(GossipSwarmConfig{
			Nodes:          5,
			N:              swarmN,
			BlockSize:      64,
			Seed:           o.Seed + 13,
			Adaptive:       adaptive,
			RefreshBatches: 8,
		})
		if err != nil {
			return t, err
		}
		name := "gossip swarm 5+seed, fixed"
		if adaptive {
			name = "gossip swarm 5+seed, adaptive"
		}
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f", res.MeanPeersPerNode),
			fmt.Sprintf("%d (%d useful)", res.Discovered, res.DiscoveredUseful),
			fmt.Sprintf("%.1f%%", 100*res.DupRate),
			fmt.Sprintf("%d", res.Refreshes),
			res.Elapsed.Round(time.Millisecond).String()})
	}
	return t, nil
}
