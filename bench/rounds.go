package main

// rounds.go runs one round of a workload: a fresh client node fetching
// from the set-up providers (fetch workloads), or one scenario lab run
// (collab_swarm). Every fetch is verified byte-for-byte against its
// source; anything else counts as a failure.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"icd/internal/node"
	"icd/internal/obs"
	"icd/internal/peer"
	"icd/internal/scenario"
)

// fetchTimeout fails a hung fetch instead of hanging the benchmark.
const fetchTimeout = 60 * time.Second

// fetchOutcome is one client fetch as the benchmark saw it from outside.
type fetchOutcome struct {
	ok        bool
	dur       time.Duration // StartFetch → verified bytes
	handshake time.Duration // StartFetch → Orchestrator().WaitInfo

	received, useful int     // Σ over the fetch's sessions
	minSender        float64 // lowest useful ÷ received among senders that sent anything
	decodeOverhead   float64
	refreshes        int
	redials, stalls  int
	evicted          int
	summaries        map[string]int // negotiated summary method → sessions
}

// roundResult is one round: its fetches, or its lab run.
type roundResult struct {
	wall    time.Duration // first StartFetch → last verification
	bytes   int64         // verified content bytes
	fetches []fetchOutcome
	reg     []obs.Metric     // the client node's registry when the round ended
	swarm   *scenario.Result // collab_swarm only
}

// round runs round seq (−1 is the warm-up) on client slot `slot`: boot a
// client node, fetch every content of the slot's next variant
// concurrently, verify, close the node.
func (e *fetchEnv) round(slot, seq int, tr *tracer) roundResult {
	inst := e.variant(slot, seq)
	contents := inst.contents
	addr := fmt.Sprintf("client-%d", slot)
	opts := node.Options{
		Listen:       addr,
		Transport:    e.transport(addr),
		MaxConns:     e.w.Knobs.MaxConns,
		WindowBudget: e.w.Knobs.WindowBudget,
		Tick:         e.w.Knobs.Tick,
	}
	opts.Fetch.Initial = inst.initial
	n := node.New(opts)
	defer n.Close()
	if err := e.serve(n, addr); err != nil {
		return roundResult{fetches: make([]fetchOutcome, len(contents))}
	}
	e.setLive(slot, n)
	defer e.setLive(slot, nil)

	res := roundResult{fetches: make([]fetchOutcome, len(contents))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range contents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.fetches[i] = e.fetch(n, c, tr)
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i, f := range res.fetches {
		if f.ok {
			res.bytes += int64(len(contents[i].data))
		}
	}
	res.reg = n.Obs().Snapshot()
	return res
}

func (e *fetchEnv) setLive(slot int, n *node.Node) {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	if n == nil {
		delete(e.live, slot)
	} else {
		e.live[slot] = n
	}
}

// liveNodes returns the client nodes currently fetching.
func (e *fetchEnv) liveNodes() []*node.Node {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	nodes := make([]*node.Node, 0, len(e.live))
	for _, n := range e.live {
		nodes = append(nodes, n)
	}
	return nodes
}

// fetch downloads one content through node n and verifies it. Spans:
// fetch → fetch.handshake, fetch.transfer, fetch.verify, with the
// transport's counts taken at the same boundaries.
func (e *fetchEnv) fetch(n *node.Node, c content, tr *tracer) fetchOutcome {
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	fid, root := tr.newFetch(), tr.reserve()

	w0, start := e.wire.snapshot(), time.Now()
	t, err := n.StartFetch(ctx, c.info.ID, e.addrs...)
	if err != nil {
		return fetchOutcome{}
	}
	_, infoErr := t.Orchestrator().WaitInfo(ctx)
	w1, infoAt := e.wire.snapshot(), time.Now()
	res, err := t.Wait()
	w2, doneAt := e.wire.snapshot(), time.Now()
	ok := err == nil && infoErr == nil && res != nil && res.Completed && bytes.Equal(res.Data, c.data)
	end := time.Now()

	out := fetchOutcome{ok: ok, dur: end.Sub(start), handshake: infoAt.Sub(start)}
	if res != nil {
		out.addPeers(res)
	}
	if tr != nil {
		tr.leaf(root, fid, "fetch.handshake", start, infoAt, wireSpanCounts(w1.sub(w0)))
		tr.leaf(root, fid, "fetch.transfer", infoAt, doneAt, wireSpanCounts(w2.sub(w1)))
		tr.leaf(root, fid, "fetch.verify", doneAt, end, nil)
		tr.add(root, 0, fid, "fetch", start, end, map[string]int64{
			"symbols_received": int64(out.received), "symbols_useful": int64(out.useful),
		})
	}
	return out
}

func wireSpanCounts(d wireCounts) map[string]int64 {
	return map[string]int64{"down_bytes": d.Down, "up_bytes": d.Up, "writes": d.Writes, "dials": d.Dials}
}

// addPeers folds a fetch result's per-session stats into the outcome.
func (f *fetchOutcome) addPeers(res *peer.FetchResult) {
	f.decodeOverhead = res.DecodeOverhead
	f.summaries = make(map[string]int)
	f.minSender = 1
	for _, p := range res.Peers {
		f.received += p.SymbolsReceived
		f.useful += p.UsefulSymbols
		f.refreshes += p.RefreshesSent
		f.redials += p.Reconnects
		f.stalls += p.Stalls
		if p.Evicted {
			f.evicted++
		}
		if p.Summary != "" {
			f.summaries[p.Summary]++
		}
		if p.SymbolsReceived > 0 {
			if r := float64(p.UsefulSymbols) / float64(p.SymbolsReceived); r < f.minSender {
				f.minSender = r
			}
		}
	}
}

// round runs lab run i (−1, the warm-up, takes the last plan) and folds
// it into a roundResult. The lab verifies every fetcher's bytes itself
// (Result.Completed counts verified ones).
func (e *swarmEnv) round(i int, tr *tracer) roundResult {
	plan := e.plans[(i+len(e.plans))%len(e.plans)]
	start := time.Now()
	res, err := scenario.RunPlan(plan)
	end := time.Now()
	out := roundResult{fetches: make([]fetchOutcome, e.w.fetchers())}
	if err != nil {
		return out
	}
	tr.leaf(0, 0, "scenario.run", start, end, map[string]int64{
		"completed": int64(res.Completed), "failed": int64(res.Failed),
	})
	out.swarm = res
	out.wall = res.Convergence
	// The lab's content is Blocks×BlockSize minus a third of a block
	// (scenario/content.go); Result does not carry its length.
	out.bytes = int64(res.Completed) * int64(plan.Spec.Blocks*plan.Spec.BlockSize-plan.Spec.BlockSize/3)
	for j := 0; j < res.Completed && j < len(out.fetches); j++ {
		out.fetches[j].ok = true
	}
	return out
}
