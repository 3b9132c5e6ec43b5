package peer

// harness_test.go is the deterministic in-process swarm harness: N
// orchestrators (optionally with live servers and shared gossip
// directories, i.e. full collaborative nodes), every server behind a
// ServerMux, wired over net.Pipe through the pipeNet of churn_test.go, with seeded content (prng) and
// step/await helpers instead of bare sleeps. The churn, gossip,
// eviction and redial tests all run on it under -race in CI.

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// harness bundles deterministic swarm material: seeded content, its
// metadata, and a pipe network nodes and servers register into.
type harness struct {
	t    *testing.T
	pn   *pipeNet
	info ContentInfo
	data []byte
}

func newHarness(t *testing.T, nBlocks, blockSize int) *harness {
	t.Helper()
	info, data := testContent(t, nBlocks, blockSize)
	return &harness{t: t, pn: newPipeNet(), info: info, data: data}
}

// addFull registers a full sender at addr, optionally throttled: every
// read on its connections sleeps delay first, so transfers last long
// enough for control-plane machinery (gossip, eviction, refresh) to
// engage deterministically. Two fresh mirrors send a receiver different
// streams: each salts its stream seeds with its own address.
func (h *harness) addFull(addr string, delay time.Duration) string {
	h.t.Helper()
	srv, err := NewFullServer(h.info, h.data)
	if err != nil {
		h.t.Fatal(err)
	}
	h.pn.add(addr, front(srv))
	if delay > 0 {
		h.pn.wrapAll(addr, func(c net.Conn) net.Conn { return &slowConn{Conn: c, delay: delay} })
	}
	return addr
}

// addPartial registers a partial sender holding count seeded symbols.
func (h *harness) addPartial(addr string, count int, seed uint64) string {
	h.t.Helper()
	srv, err := NewPartialServer(h.info, partialSymbols(h.t, h.info, h.data, count, seed))
	if err != nil {
		h.t.Fatal(err)
	}
	h.pn.add(addr, front(srv))
	return addr
}

// fetchOutcome is one orchestrator run's result.
type fetchOutcome struct {
	res *FetchResult
	err error
}

// asyncFetch is an orchestrator run in flight; wait() is the step
// barrier tests join on.
type asyncFetch struct {
	o  *Orchestrator
	ch chan fetchOutcome
}

// runAsync starts o.Run against addrs on its own goroutine.
func (h *harness) runAsync(o *Orchestrator, addrs ...string) *asyncFetch {
	a := &asyncFetch{o: o, ch: make(chan fetchOutcome, 1)}
	go func() {
		res, err := o.Run(context.Background(), addrs...)
		a.ch <- fetchOutcome{res, err}
	}()
	return a
}

// wait joins the run and fails the test on engine errors.
func (a *asyncFetch) wait(t *testing.T) *FetchResult {
	t.Helper()
	out := <-a.ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.res
}

// waitErr joins the run, returning the error instead of failing.
func (a *asyncFetch) waitErr() (*FetchResult, error) {
	out := <-a.ch
	return out.res, out.err
}

// await polls cond (every millisecond, bounded by timeout) — the
// harness's step helper for conditions that depend on another
// goroutine's progress, replacing ad-hoc sleep loops.
func (h *harness) await(what string, timeout time.Duration, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out awaiting %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// node is one collaborative swarm member: an orchestrator and the mux
// serving its live server sharing a gossip directory, registered at addr
// once the first handshake fixes the content metadata.
type node struct {
	addr   string
	gossip *Gossip
	o      *Orchestrator
	run    *asyncFetch
}

// startNode boots a collaborative node that knows only the given seed
// addresses; everything else it must discover over gossip. opts.Dial,
// AdvertiseAddr and Gossip are filled in by the harness.
func (h *harness) startNode(addr string, opts FetchOptions, seeds ...string) *node {
	h.t.Helper()
	n := &node{addr: addr, gossip: NewGossip(addr)}
	opts.Dial = h.pn.dial
	opts.AdvertiseAddr = addr
	opts.Gossip = n.gossip
	n.o = NewOrchestrator(h.info.ID, opts)
	n.run = h.runAsync(n.o, seeds...)
	go func() {
		info, err := n.o.WaitInfo(context.Background())
		if err != nil {
			return // transfer ended before any handshake; nothing to serve
		}
		live, err := NewLiveServer(info, n.o)
		if err != nil {
			return
		}
		mux := front(live)
		mux.SetGossip(n.gossip)
		h.pn.add(addr, mux)
	}()
	return n
}

// verify checks a completed download against the harness content.
func (h *harness) verify(res *FetchResult) {
	h.t.Helper()
	if !bytes.Equal(res.Data, h.data) {
		h.t.Fatal("content mismatch")
	}
}

// TestGossipBootstrapFromSingleSeed is the PR 4 acceptance scenario: a
// five-node swarm bootstrapped with nothing but the seed's address must
// self-assemble the full mesh over gossip — every node
// discovers every other node and completes the transfer.
func TestGossipBootstrapFromSingleSeed(t *testing.T) {
	const nodes = 5
	h := newHarness(t, 120, 48)
	// Throttle the seed so transfers span enough request batches for
	// advertisements to propagate before anyone finishes.
	seed := h.addFull("seed", time.Millisecond)

	opts := FetchOptions{
		Batch:             8,
		Timeout:           10 * time.Second,
		MaxUselessBatches: 1 << 20, // peers start empty: patience, not eviction
		MaxReconnects:     10,      // a discovered node may not be listening yet
		ReconnectBackoff:  2 * time.Millisecond,
	}
	all := make([]*node, nodes)
	for i := range all {
		all[i] = h.startNode(string(rune('A'+i))+"-node", opts, seed)
	}

	results := make([]*FetchResult, nodes)
	for i, n := range all {
		res := n.run.wait(t)
		results[i] = res
		h.verify(res)
		// Convergence: this node must have started a gossip-admitted
		// session to every other node in the swarm.
		found := make(map[string]bool)
		for _, p := range res.Peers {
			if p.Discovered {
				found[p.Addr] = true
			}
		}
		for _, other := range all {
			if other == n {
				continue
			}
			if !found[other.addr] {
				t.Fatalf("node %s never discovered %s (found %v)", n.addr, other.addr, found)
			}
		}
		if found[n.addr] {
			t.Fatalf("node %s gossiped itself into a self-session", n.addr)
		}
	}

	// The mesh must have carried real payload, not just advertisements:
	// somewhere in the swarm a discovered session contributed symbols.
	usefulDiscovered := 0
	for _, res := range results {
		for _, p := range res.Peers {
			if p.Discovered && p.UsefulSymbols > 0 {
				usefulDiscovered++
			}
		}
	}
	if usefulDiscovered == 0 {
		t.Fatal("no gossip-admitted session contributed a single useful symbol")
	}
}

// TestRunWithNoPeersUnblocksWaitInfo pins the empty-bootstrap exit: a
// Run that starts zero sessions must still close the engine down, so a
// collaborative caller's concurrent WaitInfo returns instead of
// leaking a goroutine forever.
func TestRunWithNoPeersUnblocksWaitInfo(t *testing.T) {
	defer checkGoroutines(t)()
	h := newHarness(t, 60, 32)
	defer h.pn.close() // stop any accept loops before the leak check
	o := NewOrchestrator(h.info.ID, FetchOptions{Timeout: time.Second, Dial: h.pn.dial})
	waited := make(chan error, 1)
	go func() {
		_, err := o.WaitInfo(context.Background())
		waited <- err
	}()
	if _, err := o.Run(context.Background()); err == nil {
		t.Fatal("Run with no peers succeeded?!")
	}
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("WaitInfo returned info without any handshake")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitInfo still blocked after Run returned")
	}
}

// TestMultiContentSwarmSharedBudget is the PR 5 peer-layer acceptance
// scenario: two contents served by the same overlapping peer nodes —
// each node one ServerMux behind one synthetic listener — fetched by
// two orchestrators dividing a global connection budget of 3. The
// budget is reassigned mid-transfer (shrink the fast content, grow the
// other: the scheduler's slot-shifting move), both transfers must
// complete, and a sampler asserts the combined live-session count never
// exceeds the budget.
func TestMultiContentSwarmSharedBudget(t *testing.T) {
	infoA, dataA := testContentID(t, 0xA, 140, 48)
	infoB, dataB := testContentID(t, 0xB, 120, 48)
	pn := newPipeNet()
	// Three overlapping peer nodes: every node serves BOTH contents from
	// one listener, throttled so the transfers outlive the mid-run
	// budget reassignment.
	addrs := []string{"node1", "node2", "node3"}
	for _, addr := range addrs {
		mux := NewServerMux()
		for i, info := range []ContentInfo{infoA, infoB} {
			srv, err := NewFullServer(info, [][]byte{dataA, dataB}[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := mux.Register(srv); err != nil {
				t.Fatal(err)
			}
		}
		pn.add(addr, mux)
		pn.wrapAll(addr, func(c net.Conn) net.Conn {
			return &slowConn{Conn: c, delay: 300 * time.Microsecond}
		})
	}

	const budget = 3
	opts := func(maxPeers int) FetchOptions {
		return FetchOptions{
			Batch:             8,
			Timeout:           10 * time.Second,
			MaxPeers:          maxPeers,
			MaxUselessBatches: 1 << 20, // reassignment, not uselessness, drives churn
			Dial:              pn.dial,
		}
	}
	oA := NewOrchestrator(infoA.ID, opts(2))
	oB := NewOrchestrator(infoB.ID, opts(1))

	// Budget sampler: the combined live-session count must never exceed
	// the global budget, before, during and after the reassignment. The
	// two Sessions() reads are not one atomic snapshot, so sampling is
	// paused for the instant the caps are being moved — a stale read of
	// A paired with a fresh read of B is sampler skew, not a violation.
	stop := make(chan struct{})
	var violations atomic.Int32
	var paused atomic.Bool
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if live := len(oA.Sessions()) + len(oB.Sessions()); live > budget && !paused.Load() {
				// Confirm before counting: a genuine cap bug persists
				// (SetMaxPeers evicts synchronously), while two-read skew
				// settles immediately.
				time.Sleep(time.Millisecond)
				if len(oA.Sessions())+len(oB.Sessions()) > budget {
					violations.Add(1)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	runA := (&harness{t: t, pn: pn}).runAsync(oA, addrs[0], addrs[1])
	runB := (&harness{t: t, pn: pn}).runAsync(oB, addrs[2])
	if _, err := oA.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := oB.WaitInfo(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Shift one slot from content A to content B — shrink first, then
	// grow, so the sum stays within budget throughout.
	paused.Store(true)
	oA.SetMaxPeers(1)
	oB.SetMaxPeers(2)
	paused.Store(false)
	if err := oB.AddPeer(addrs[0]); err != nil {
		t.Logf("AddPeer after grow: %v (transfer may have finished)", err)
	}

	resA := runA.wait(t)
	resB := runB.wait(t)
	close(stop)
	sampler.Wait()

	if !bytes.Equal(resA.Data, dataA) || !bytes.Equal(resB.Data, dataB) {
		t.Fatal("multi-content fetch corrupted a content")
	}
	if got := violations.Load(); got != 0 {
		t.Fatalf("connection budget exceeded %d times", got)
	}
	if oA.MaxPeers() != 1 || oB.MaxPeers() != 2 {
		t.Fatalf("caps after reassignment: A=%d B=%d", oA.MaxPeers(), oB.MaxPeers())
	}
	// The shrink must have evicted one of A's two sessions (unless A
	// finished first and won the race).
	evicted := false
	for _, p := range resA.Peers {
		if p.Evicted {
			evicted = true
		}
	}
	if !evicted && len(resA.Peers) > 1 {
		t.Log("no eviction recorded — content A finished before the shrink landed")
	}
}
