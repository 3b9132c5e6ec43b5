package scenario

// run.go executes an expanded plan: every node a real node.Node with
// its own listener, gossip directory and penalty box, wired over one
// faultnet.ShapedNet; churn fires off timers; a metrics collector folds
// every fetch result into the swarm-scale numbers the lab reports.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"icd/internal/faultnet"
	"icd/internal/node"
	"icd/internal/peer"
)

// Result is one run's swarm-scale measurement.
type Result struct {
	// Name and Nodes echo the scenario and its initial population.
	Name  string
	Nodes int
	// Converged is true when every fetcher the churn schedule let live
	// completed and verified the content.
	Converged bool
	// Completed counts verified downloads; Churned counts fetchers with
	// a scheduled stop (a victim fast enough to finish first counts in
	// both); Failed counts unchurned fetchers that did not finish.
	Completed, Failed, Churned int
	// Convergence is the slowest completion's offset from the run
	// start — the swarm convergence time.
	Convergence time.Duration
	// P50 and P95 are completion-time percentiles across fetchers;
	// Spread is their ratio (1.0 = perfectly fair).
	P50, P95 time.Duration
	Spread   float64
	// Offload is the fraction of useful symbols served by non-seed
	// nodes — how much of the delivery the origin servers did NOT do.
	Offload float64
	// Elapsed is the whole run's wall-clock time, teardown included.
	Elapsed time.Duration
	// Series is the swarm-wide time-series sampled every
	// Spec.SampleEvery from each live node's metrics registry (nil when
	// sampling is disabled).
	Series []Sample
}

// runningNode is one live node and its fetch handle.
type runningNode struct {
	plan   NodePlan
	n      *node.Node
	cancel context.CancelFunc
	tr     *node.Transfer
}

// outcome is one fetcher's terminal record.
type outcome struct {
	plan     NodePlan
	res      *peer.FetchResult
	err      error
	finished time.Duration // completion offset from run start
}

// Run executes the scenario and reports its metrics. Fetch failures are
// measurements (Converged/Failed), not errors; only a spec or setup
// problem returns a non-nil error.
func Run(spec Spec) (*Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	return RunPlan(plan)
}

// RunPlan executes an already-expanded plan (callers that want to
// inspect or log the topology expand once and run the same plan).
func RunPlan(plan *Plan) (*Result, error) {
	spec := plan.Spec
	info, content := buildContent(spec)

	shaped := faultnet.NewShapedNet(spec.Seed ^ 0x11A8)
	classes := make(map[string]faultnet.LinkClass, len(spec.Links))
	for _, l := range spec.Links {
		classes[l.Name] = l.Class()
	}
	for _, np := range plan.Nodes {
		if np.Class != "" {
			if cls, ok := classes[np.Class]; ok {
				shaped.SetClass(np.Addr, cls)
			} else {
				return nil, fmt.Errorf("scenario %q: node %s references unknown link class %q",
					spec.Name, np.Addr, np.Class)
			}
		}
	}

	isSeed := make(map[string]bool)
	nFetchers := 0
	for _, np := range plan.Nodes {
		if np.Role == RoleSeed {
			isSeed[np.Addr] = true
		}
		if np.Fetches() {
			nFetchers++
		}
	}

	var (
		mu      sync.Mutex
		running = make(map[string]*runningNode, len(plan.Nodes))
		timers  []*time.Timer
		done    bool
	)
	outcomes := make(chan outcome, nFetchers)
	var fetchers sync.WaitGroup
	fetchers.Add(nFetchers)
	start := time.Now()

	// launch boots one node per its plan. Setup failures surface as the
	// fetcher's outcome (the swarm runs on), never a hang.
	launch := func(np NodePlan) {
		fail := func(err error) {
			if np.Fetches() {
				outcomes <- outcome{plan: np, err: err}
				fetchers.Done()
			}
		}
		opts := node.Options{
			Listen:    np.Addr,
			Transport: shaped.Node(np.Addr),
			Tick:      spec.Tick.D(),
			Fetch: peer.FetchOptions{
				Batch:               8,
				Timeout:             spec.Timeout.D(),
				MaxPeers:            spec.MaxPeers,
				MaxUselessBatches:   1 << 20, // peers start empty: patience, not eviction
				MaxReconnects:       40,      // churned conns and not-yet-listening peers redial
				ReconnectBackoff:    5 * time.Millisecond,
				MaxReconnectBackoff: 250 * time.Millisecond,
				StallTimeout:        20 * time.Second,
			},
		}
		if np.Role == RoleProvider {
			held, err := encodeSymbols(info, content, np.Symbols, np.SymbolSeed)
			if err != nil {
				fail(err)
				return
			}
			opts.Fetch.Initial = held
		}
		n := node.New(opts)
		rn := &runningNode{plan: np, n: n}
		if np.Role == RoleSeed {
			if err := n.ServeFull(info, content, true); err != nil {
				n.Close()
				fail(err)
				return
			}
		}
		go n.ListenAndServe()
		if np.Fetches() {
			ctx, cancel := context.WithCancel(context.Background())
			rn.cancel = cancel
			tr, err := n.StartFetch(ctx, info.ID, np.Bootstrap...)
			if err != nil {
				cancel()
				n.Close()
				fail(err)
				return
			}
			rn.tr = tr
			go func() {
				res, err := tr.Wait()
				outcomes <- outcome{plan: np, res: res, err: err, finished: time.Since(start)}
				fetchers.Done()
			}()
		}
		mu.Lock()
		if done {
			// The run already tore down while this join was booting.
			mu.Unlock()
			if rn.cancel != nil {
				rn.cancel()
			}
			n.Close()
			return
		}
		running[np.Addr] = rn
		mu.Unlock()
	}

	// stop ends a node per the churn schedule: a leave cancels the
	// fetch first (sessions unwind cleanly), a kill closes the node
	// first so its peers see connections die mid-stream.
	stop := func(addr, kind string) {
		mu.Lock()
		rn := running[addr]
		delete(running, addr)
		mu.Unlock()
		if rn == nil {
			return
		}
		if kind == ActionKill {
			rn.n.Close()
			if rn.cancel != nil {
				rn.cancel()
			}
			return
		}
		if rn.cancel != nil {
			rn.cancel()
		}
		rn.n.Close()
	}

	for _, np := range plan.Nodes {
		np := np
		if np.Start == 0 {
			launch(np)
		} else {
			mu.Lock()
			timers = append(timers, time.AfterFunc(np.Start.D(), func() { launch(np) }))
			mu.Unlock()
		}
		if np.StopKind != "" {
			mu.Lock()
			timers = append(timers, time.AfterFunc(np.Stop.D(), func() { stop(np.Addr, np.StopKind) }))
			mu.Unlock()
		}
	}

	// Sample the swarm's registries on the spec cadence while the
	// fetchers run; the final fold lands after teardown begins.
	samplec := make(chan []Sample, 1)
	sampstop := make(chan struct{})
	if every := spec.SampleEvery.D(); every > 0 {
		go func() {
			samplec <- sampleSwarm(every, start, sampstop, func() []*node.Node {
				mu.Lock()
				defer mu.Unlock()
				nodes := make([]*node.Node, 0, len(running))
				for _, rn := range running {
					nodes = append(nodes, rn.n)
				}
				return nodes
			})
		}()
	} else {
		samplec <- nil
	}

	fetchers.Wait()
	close(outcomes)
	close(sampstop)
	series := <-samplec

	// Teardown: no more joins, then close every node still up. Closing
	// a node stops its ticker and listener; cancelled fetch contexts
	// already unwound the sessions.
	mu.Lock()
	done = true
	pending := timers
	remaining := make([]*runningNode, 0, len(running))
	for _, rn := range running {
		remaining = append(remaining, rn)
	}
	mu.Unlock()
	for _, t := range pending {
		t.Stop()
	}
	for _, rn := range remaining {
		if rn.cancel != nil {
			rn.cancel()
		}
		rn.n.Close()
	}

	res := &Result{Name: spec.Name, Nodes: spec.Nodes(), Converged: true, Series: series}
	var finishes []time.Duration
	var totalUseful, seedUseful int64
	for out := range outcomes {
		churned := out.plan.StopKind != ""
		completed := out.err == nil && out.res != nil && out.res.Completed &&
			bytes.Equal(out.res.Data, content)
		if churned {
			res.Churned++
		}
		switch {
		case completed:
			res.Completed++
			finishes = append(finishes, out.finished)
			if out.finished > res.Convergence {
				res.Convergence = out.finished
			}
		case !churned:
			res.Failed++
			res.Converged = false
		}
		if out.res != nil {
			for _, p := range out.res.Peers {
				totalUseful += int64(p.UsefulSymbols)
				if isSeed[p.Addr] {
					seedUseful += int64(p.UsefulSymbols)
				}
			}
		}
	}
	if res.Completed == 0 {
		res.Converged = false
	}
	if len(finishes) > 0 {
		sort.Slice(finishes, func(i, j int) bool { return finishes[i] < finishes[j] })
		res.P50 = percentile(finishes, 0.50)
		res.P95 = percentile(finishes, 0.95)
		if res.P50 > 0 {
			res.Spread = float64(res.P95) / float64(res.P50)
		}
	}
	if totalUseful > 0 {
		res.Offload = 1 - float64(seedUseful)/float64(totalUseful)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// percentile picks the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
