package main

// workloads.go defines the five workloads and builds each one from a
// seed: content bytes, encoded symbol pools, the in-process network and
// the provider nodes. Every node is a real node.Node with shipped
// defaults; the only options set are Listen, Transport and the ones a
// workload's definition names (clientKnobs).

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"icd/internal/faultnet"
	"icd/internal/fountain"
	"icd/internal/node"
	"icd/internal/peer"
	"icd/internal/prng"
	"icd/internal/scenario"
)

// clientKnobs are the node.Options fields a workload definition may name.
type clientKnobs struct {
	MaxConns     int           `json:"max_conns,omitempty"`
	WindowBudget int           `json:"window_budget,omitempty"`
	Tick         time.Duration `json:"tick_ns,omitempty"`
}

// linkParams is the ShapedNet link class every endpoint of a shaped
// workload draws (one class, so the draw is the class itself).
type linkParams struct {
	Name            string        `json:"name"`
	Latency         time.Duration `json:"latency_ns"`
	DeliveryLatency bool          `json:"delivery_latency"`
}

// workload is one workload's full parameter set; it is recorded verbatim
// in the result JSON so a row is reproducible from its parameters alone.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Transport names the in-process network: no kernel sockets anywhere.
	Transport string `json:"transport"`
	K         int    `json:"k"`
	BlockSize int    `json:"block_size"`
	// Contents is how many distinct contents one client node fetches
	// concurrently in a round.
	Contents int `json:"contents"`
	// Clients is how many client loops run in parallel, each on contents
	// of its own (closed loop: a client starts its next round when the
	// previous one is verified).
	Clients int `json:"clients"`
	// Variants is how many seed-derived instances (content, code seed,
	// symbol pool) each client loop cycles through, one per round. Fetch
	// time depends on the instance — the same partial_swarm geometry runs
	// 35% apart on two pool draws — so a run measures a spread of them
	// and seeds stay comparable.
	Variants int `json:"variants"`
	// Rounds is the fixed measured round count (per client loop) used
	// when no -seconds is given.
	Rounds int `json:"rounds"`
	// Providers describes the serving node group.
	Providers []string    `json:"providers"`
	Partial   bool        `json:"partial,omitempty"`
	Knobs     clientKnobs `json:"client_options"`
	Link      *linkParams `json:"link,omitempty"`
	// Swarm is the scenario lab spec of collab_swarm (Seed = seed + round).
	Swarm *scenario.Spec `json:"swarm,omitempty"`

	small bool // toy size: the layer replay shrinks its operation counts too
}

const mib = 1 << 20

// workloads returns the five workloads at full size.
func workloads() []*workload {
	return []*workload{
		{
			Name: "pipe_full",
			Why: "One full sender on a zero-latency pipe, two clients each fetching its own content: the CPU-bound data " +
				"plane (encode, framing+CRC, mux/credits, decode); reconciliation and scheduling do nothing.",
			Transport: "PipeNet", K: 4096, BlockSize: 1400, Contents: 1, Clients: 2, Variants: 4, Rounds: 55,
			Providers: []string{"provider: ServeFull"},
		},
		{
			Name: "multi_small",
			Why: "One client fetches 4 contents of 256 B blocks at once over one wire: per-frame and per-channel cost, " +
				"the slot+window scheduler and the store dominate; XOR does little.",
			Transport: "PipeNet", K: 4096, BlockSize: 256, Contents: 4, Clients: 1, Variants: 8, Rounds: 30,
			Providers: []string{"provider: ServeFull x4 contents"},
			Knobs:     clientKnobs{MaxConns: 4, WindowBudget: 256, Tick: 20 * time.Millisecond},
		},
		{
			Name: "partial_swarm",
			Why: "No full sender: a client holds ids[0:k/2] and two partial senders overlap it and each other, so " +
				"summaries and recoding decide how many received symbols are useful (the paper's scenario).",
			Transport: "PipeNet", K: 4096, BlockSize: 1400, Contents: 1, Clients: 2, Variants: 8, Rounds: 55,
			Providers: []string{"A: ServePartial ids[k/4:k]", "B: ServePartial ids[3k/4:3k/2]"},
			Partial:   true,
		},
		{
			Name: "wan_rtt50",
			Why: "The full sender behind a 50 ms RTT, unlimited-bandwidth link, two clients on a content each: handshake turns, " +
				"the AIMD request ramp and the credit window set the result; codec speed should not show.",
			Transport: "ShapedNet", K: 1024, BlockSize: 1400, Contents: 1, Clients: 2, Variants: 4, Rounds: 55,
			Providers: []string{"provider: ServeFull"},
			Link:      &linkParams{Name: "wan", Latency: 12500 * time.Microsecond, DeliveryLatency: true},
		},
		{
			Name: "collab_swarm",
			Why: "The scenario lab: 1 seed, 4 providers, 8 clients all serving while fetching on upload-starved links; " +
				"live recode, gossip and eviction beside the fetch, link-bound, so wasted symbols cost time.",
			Transport: "ShapedNet (scenario lab)", K: 2048, BlockSize: 1400, Contents: 1, Clients: 1, Variants: 64, Rounds: 12,
			Providers: []string{"seed x1: full", "provider x4: fill 0.4, fetching", "client x8: empty, fetching"},
			Swarm: &scenario.Spec{
				Name: "collab_swarm", Blocks: 2048, BlockSize: 1400,
				Seeds: 1, Providers: 4, Clients: 8, ProviderFill: 0.4, Bootstrap: 3, MaxPeers: 4,
				Links: []scenario.LinkSpec{{
					Name: "dsl", Latency: scenario.Duration(2 * time.Millisecond), UpBps: 2 * mib, DownBps: 8 * mib,
				}},
				SampleEvery: scenario.Duration(250 * time.Millisecond),
			},
		},
	}
}

// toy shrinks a workload to test size: same topology and code paths,
// k=64 and two rounds.
func (w *workload) toy() *workload {
	t := *w
	t.K, t.Rounds, t.small = 64, 2, true
	if w.Swarm != nil {
		s := *w.Swarm
		s.Blocks = 64
		t.Swarm = &s
	}
	return &t
}

// fetchers is how many fetches one round of the workload attempts.
func (w *workload) fetchers() int {
	if w.Swarm != nil {
		return w.Swarm.Providers + w.Swarm.Clients
	}
	return w.Contents
}

// content is one generated content and its metadata.
type content struct {
	info peer.ContentInfo
	data []byte
}

// genContent fills k×blockSize bytes (minus a partial tail block, so the
// padding path runs) from the seed.
func genContent(k, blockSize int, seed uint64) content {
	rng := prng.New(seed ^ 0xC0D7E47)
	buf := make([]byte, k*blockSize+8)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	data := buf[:k*blockSize-blockSize/3]
	return content{
		info: peer.ContentInfo{
			ID:        0xBE7C0000 ^ seed,
			NumBlocks: k,
			BlockSize: blockSize,
			OrigLen:   len(data),
			CodeSeed:  seed ^ 0x5EED,
		},
		data: data,
	}
}

// newEncoder opens symbol stream `stream` of c's fountain code.
func newEncoder(c content, stream uint64) (*fountain.Encoder, error) {
	blocks, _, err := fountain.SplitIntoBlocks(c.data, c.info.BlockSize)
	if err != nil {
		return nil, err
	}
	code, err := fountain.NewCode(c.info.NumBlocks, nil, c.info.CodeSeed)
	if err != nil {
		return nil, err
	}
	return fountain.NewEncoder(code, blocks, stream)
}

// encodedPool returns count distinct encoded symbols of c in stream
// order, so working sets can be carved by index range.
func encodedPool(c content, count int, seed uint64) (ids []uint64, payloads map[uint64][]byte, err error) {
	enc, err := newEncoder(c, seed)
	if err != nil {
		return nil, nil, err
	}
	payloads = make(map[uint64][]byte, count)
	for len(ids) < count {
		sym := enc.Next()
		if _, dup := payloads[sym.ID]; !dup {
			ids = append(ids, sym.ID)
			payloads[sym.ID] = append([]byte(nil), sym.Data...)
		}
		enc.Release(sym)
	}
	return ids, payloads, nil
}

func subset(ids []uint64, payloads map[uint64][]byte) map[uint64][]byte {
	out := make(map[uint64][]byte, len(ids))
	for _, id := range ids {
		out[id] = payloads[id]
	}
	return out
}

// network is what both in-process transports offer: a shared namespace
// plus per-endpoint views whose dials carry the endpoint's identity.
type network interface {
	faultnet.Transport
	Node(src string) faultnet.Transport
}

// instance is what one round fetches: the contents, and the client's
// starting working set (partial_swarm).
type instance struct {
	contents []content
	initial  map[uint64][]byte
}

// replica is what one provider serves of one content: the whole of it,
// or (symbols non-nil) a partial working set.
type replica struct {
	c       content
	symbols map[uint64][]byte
}

// fetchEnv is a set-up fetch workload: generated inputs, the network and
// the booted provider nodes. Client nodes are per round (rounds.go).
type fetchEnv struct {
	w         *workload
	net       network
	instances [][]instance         // per client slot: the variants its rounds cycle through
	holdings  map[string][]replica // provider address → what it serves
	addrs     []string             // provider addresses, the fetch bootstrap list
	providers []*node.Node
	serving   sync.WaitGroup // provider and client Serve goroutines
	wire      wireCounter    // every client-dialed connection counts here

	liveMu sync.Mutex
	live   map[int]*node.Node // client slot → node, for the traced pass's gauge sampler
}

// newNetwork builds the workload's in-process network: a PipeNet, or a
// seeded ShapedNet with every endpoint on the workload's one link class.
func newNetwork(w *workload, seed uint64) network {
	if w.Link == nil {
		return faultnet.NewPipeNet()
	}
	shaped := faultnet.NewShapedNet(seed)
	shaped.SetDeliveryLatency(w.Link.DeliveryLatency)
	shaped.SetDefaultClass(faultnet.LinkClass{Name: w.Link.Name, Latency: w.Link.Latency})
	return shaped
}

// setupFetch builds a fetch workload from the seed and boots its
// providers. The caller owns close().
func setupFetch(w *workload, seed uint64) (*fetchEnv, error) {
	e := &fetchEnv{w: w, holdings: make(map[string][]replica), live: make(map[int]*node.Node)}
	e.addrs = []string{"provider"}
	if w.Partial {
		e.addrs = []string{"A", "B"}
	}
	next := seed // every content of the run draws its own seed
	for slot := 0; slot < w.Clients; slot++ {
		var variants []instance
		for v := 0; v < w.Variants; v++ {
			var inst instance
			for i := 0; i < w.Contents; i++ {
				inst.contents = append(inst.contents, genContent(w.K, w.BlockSize, next))
				next++
			}
			if w.Partial {
				c, k := inst.contents[0], w.K
				pool := k + k/2
				if w.small {
					pool += 2 * k // a toy k needs relatively more symbols to decode
				}
				ids, payloads, err := encodedPool(c, pool, c.info.CodeSeed^0x9001)
				if err != nil {
					return nil, err
				}
				inst.initial = subset(ids[:k/2], payloads)
				e.holdings["A"] = append(e.holdings["A"], replica{c, subset(ids[k/4:k], payloads)})
				e.holdings["B"] = append(e.holdings["B"], replica{c, subset(ids[3*k/4:], payloads)})
			} else {
				for _, c := range inst.contents {
					e.holdings["provider"] = append(e.holdings["provider"], replica{c: c})
				}
			}
			variants = append(variants, inst)
		}
		e.instances = append(e.instances, variants)
	}
	e.net = newNetwork(w, seed)
	for _, addr := range e.addrs {
		n := node.New(node.Options{Listen: addr, Transport: e.transport(addr)})
		e.providers = append(e.providers, n)
		for _, r := range e.holdings[addr] {
			var err error
			if r.symbols != nil {
				err = n.ServePartial(r.c.info, r.symbols, true)
			} else {
				err = n.ServeFull(r.c.info, r.c.data, true)
			}
			if err != nil {
				e.close()
				return nil, fmt.Errorf("%s: provider %s: %w", w.Name, addr, err)
			}
		}
		if err := e.serve(n, addr); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// transport is the counted view of the network a node at addr gets.
func (e *fetchEnv) transport(addr string) faultnet.Transport {
	return countingTransport{Transport: e.net.Node(addr), c: &e.wire}
}

// serve binds addr before returning (so the first dial cannot race the
// listener) and serves it until the node closes.
func (e *fetchEnv) serve(n *node.Node, addr string) error {
	ln, err := e.transport(addr).Listen(addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", e.w.Name, addr, err)
	}
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		n.Serve(ln) // returns when the node closes its listener
	}()
	return nil
}

// shapedDelay is what the ShapedNet's shaper owed the providers' links,
// both directions, and over how many chunks; zeros on PipeNet, and for
// collab_swarm (no fetchEnv at all), whose network the lab owns. It reads
// the transport's own LinkStats: the registry's shaped-delay histogram is
// never fed in delivery-latency mode.
func (e *fetchEnv) shapedDelay() (owed time.Duration, chunks int64) {
	if e == nil {
		return 0, 0
	}
	shaped, ok := e.net.(*faultnet.ShapedNet)
	if !ok {
		return 0, 0
	}
	for _, addr := range e.addrs {
		st := shaped.LinkStats(addr)
		owed += st.Up.ShapedDelay + st.Down.ShapedDelay
		chunks += st.Up.Chunks + st.Down.Chunks
	}
	return owed, chunks
}

// variant is the instance round seq (−1 is the warm-up) of a client slot
// fetches.
func (e *fetchEnv) variant(slot, seq int) instance {
	variants := e.instances[slot]
	return variants[(seq+len(variants))%len(variants)]
}

// close stops the providers and waits for every Serve goroutine.
func (e *fetchEnv) close() {
	for _, n := range e.providers {
		n.Close()
	}
	e.serving.Wait()
}

// swarmEnv is collab_swarm set up: Variants expanded plans, one per
// round; a pass that outlasts them (none does at the sizes shipped)
// cycles.
type swarmEnv struct {
	w     *workload
	plans []*scenario.Plan
}

func setupSwarm(w *workload, seed uint64) (*swarmEnv, error) {
	e := &swarmEnv{w: w}
	for i := 0; i < w.Variants; i++ {
		spec := *w.Swarm
		spec.Seed = seed + uint64(i)
		plan, err := spec.Plan()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		e.plans = append(e.plans, plan)
	}
	return e, nil
}
