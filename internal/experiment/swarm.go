package experiment

// swarm.go measures the real swarm engine end to end — the layered
// session/orchestrator rewrite of peer.Fetch (PR 3) — over in-process
// net.Pipe transports, so the numbers capture protocol + engine cost
// without kernel TCP noise: single- and multi-sender fetch throughput,
// and the Figure 1(c) comparison of collaborative (live both-ways)
// exchange against download-only sessions through a rate-limited source.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"icd/internal/fountain"
	"icd/internal/peer"
	"icd/internal/prng"
)

// SwarmFixture is shared in-process swarm material: deterministic
// content, its metadata, and a pipe "network" of named servers.
type SwarmFixture struct {
	Info    peer.ContentInfo
	Content []byte

	mu      sync.Mutex
	servers map[string]*peer.ServerMux
	delay   map[string]time.Duration // per-address read throttle
}

// BuildSwarmFixture creates content of n blocks × blockSize bytes.
func BuildSwarmFixture(n, blockSize int, seed uint64) (*SwarmFixture, error) {
	rng := prng.New(seed)
	content := make([]byte, n*blockSize-blockSize/3)
	for i := range content {
		content[i] = byte(rng.Uint64())
	}
	info := peer.ContentInfo{
		ID:        0x5A5A ^ seed,
		NumBlocks: n,
		BlockSize: blockSize,
		OrigLen:   len(content),
		CodeSeed:  seed ^ 0x1CD,
	}
	return &SwarmFixture{
		Info:    info,
		Content: content,
		servers: make(map[string]*peer.ServerMux),
		delay:   make(map[string]time.Duration),
	}, nil
}

// frontDoor puts one content server behind a ServerMux of its own (a
// server's gossip directory and penalty box survive registration on a
// mux that has none).
func frontDoor(s *peer.Server) *peer.ServerMux {
	mux := peer.NewServerMux()
	if err := mux.Register(s); err != nil {
		panic(err) // a fresh mux cannot hold a duplicate
	}
	return mux
}

// AddServer serves a content server at a synthetic address, optionally
// throttled (every read on its connections sleeps `delay` first).
func (f *SwarmFixture) AddServer(addr string, s *peer.Server, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.servers[addr] = frontDoor(s)
	f.delay[addr] = delay
}

type slowPipeConn struct {
	net.Conn
	delay time.Duration
}

func (c *slowPipeConn) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Read(p)
}

// Dial implements peer.FetchOptions.Dial over net.Pipe: each dial is one
// fabric wire served by the address's mux.
func (f *SwarmFixture) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	s := f.servers[addr]
	delay := f.delay[addr]
	f.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("experiment: no server at %q", addr)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		s.ServeConn(server)
	}()
	if delay > 0 {
		return &slowPipeConn{Conn: client, delay: delay}, nil
	}
	return client, nil
}

// EncodedPrefix encodes `count` distinct symbols as an ordered slice so
// callers can carve overlapping working sets by index range.
func (f *SwarmFixture) EncodedPrefix(count int, seed uint64) (ids []uint64, payloads map[uint64][]byte, err error) {
	blocks, _, err := fountain.SplitIntoBlocks(f.Content, f.Info.BlockSize)
	if err != nil {
		return nil, nil, err
	}
	code, err := fountain.NewCode(f.Info.NumBlocks, nil, f.Info.CodeSeed)
	if err != nil {
		return nil, nil, err
	}
	enc, err := fountain.NewEncoder(code, blocks, seed)
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

func subset(ids []uint64, payloads map[uint64][]byte, lo, hi int) map[uint64][]byte {
	out := make(map[uint64][]byte, hi-lo)
	for _, id := range ids[lo:hi] {
		out[id] = payloads[id]
	}
	return out
}

// DriveSwarmFetch runs one fetch through the engine and verifies the
// content, returning the result and the wall-clock time.
func DriveSwarmFetch(f *SwarmFixture, addrs []string, opts peer.FetchOptions) (*peer.FetchResult, time.Duration, error) {
	opts.Dial = f.Dial
	start := time.Now()
	res, err := peer.Fetch(addrs, f.Info.ID, opts)
	elapsed := time.Since(start)
	if err != nil {
		return res, elapsed, err
	}
	if !bytes.Equal(res.Data, f.Content) {
		return res, elapsed, fmt.Errorf("experiment: swarm fetch content mismatch")
	}
	return res, elapsed, nil
}

// SwarmE2E is the PR 3 engine measurement: fetch throughput at one and
// three senders, and collaborative vs download-only source cost in the
// Figure 1(c) topology.
func SwarmE2E(o Options) (Table, error) {
	o = o.withDefaults()
	n := o.N
	if n > 1200 {
		n = 1200 // e2e rows measure the engine, not the box's patience
	}
	const blockSize = 1400
	t := Table{
		ID:     "swarm",
		Title:  "swarm engine end-to-end (net.Pipe transports)",
		Header: []string{"scenario", "MB/s", "elapsed", "overhead", "source-symbols"},
	}
	mb := func(d time.Duration, bytes int) string {
		return fmt.Sprintf("%.1f", float64(bytes)/d.Seconds()/1e6)
	}

	// One full sender.
	f, err := BuildSwarmFixture(n, blockSize, o.Seed)
	if err != nil {
		return t, err
	}
	full, err := peer.NewFullServer(f.Info, f.Content)
	if err != nil {
		return t, err
	}
	f.AddServer("S", full, 0)
	// MaxUselessBatches is generous on the throughput rows: on a loaded
	// 1-core box the decode loop can lag a batch or two behind the
	// receive loops, and the default tolerance can misread that as an
	// unproductive sender.
	res, elapsed, err := DriveSwarmFetch(f, []string{"S"},
		peer.FetchOptions{Batch: 64, Timeout: time.Minute, MaxUselessBatches: 64})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"fetch 1 full sender", mb(elapsed, len(f.Content)),
		elapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.1f%%", 100*res.DecodeOverhead), "-"})

	// Three senders: one full, two partials holding ~60% each.
	f3, err := BuildSwarmFixture(n, blockSize, o.Seed+1)
	if err != nil {
		return t, err
	}
	full3, err := peer.NewFullServer(f3.Info, f3.Content)
	if err != nil {
		return t, err
	}
	ids, payloads, err := f3.EncodedPrefix(2*n*6/10, o.Seed+7)
	if err != nil {
		return t, err
	}
	p1, err := peer.NewPartialServer(f3.Info, subset(ids, payloads, 0, n*6/10))
	if err != nil {
		return t, err
	}
	p2, err := peer.NewPartialServer(f3.Info, subset(ids, payloads, n*6/10, 2*n*6/10))
	if err != nil {
		return t, err
	}
	f3.AddServer("S", full3, 0)
	f3.AddServer("P1", p1, 0)
	f3.AddServer("P2", p2, 0)
	res, elapsed, err = DriveSwarmFetch(f3, []string{"S", "P1", "P2"},
		peer.FetchOptions{Batch: 64, Timeout: time.Minute, MaxUselessBatches: 64})
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"fetch full+2 partial", mb(elapsed, len(f3.Content)),
		elapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.1f%%", 100*res.DecodeOverhead), "-"})

	// Figure 1(c): two collaborating partials behind a throttled source,
	// download-only vs live both-ways exchange.
	for _, collaborative := range []bool{false, true} {
		nc := n
		if nc > 240 {
			nc = 240 // the throttled source dominates; keep the row quick
		}
		fc, err := BuildSwarmFixture(nc, 64, o.Seed+2)
		if err != nil {
			return t, err
		}
		pool := nc * 15 / 16
		half := pool * 6 / 10
		cids, cpay, err := fc.EncodedPrefix(pool, o.Seed+9)
		if err != nil {
			return t, err
		}
		setA := subset(cids, cpay, 0, half)
		setB := subset(cids, cpay, pool-half, pool)
		src, err := peer.NewFullServer(fc.Info, fc.Content)
		if err != nil {
			return t, err
		}
		fc.AddServer("S", src, time.Millisecond)

		optsFor := func(initial map[uint64][]byte) peer.FetchOptions {
			return peer.FetchOptions{
				Batch:             8,
				Timeout:           time.Minute,
				Initial:           initial,
				MaxUselessBatches: 1 << 20,
				RefreshBatches:    2,
				RefreshGrowth:     0.02,
				Dial:              fc.Dial,
			}
		}
		oa := peer.NewOrchestrator(fc.Info.ID, optsFor(setA))
		ob := peer.NewOrchestrator(fc.Info.ID, optsFor(setB))
		if collaborative {
			liveA, err := peer.NewLiveServer(fc.Info, oa)
			if err != nil {
				return t, err
			}
			liveB, err := peer.NewLiveServer(fc.Info, ob)
			if err != nil {
				return t, err
			}
			fc.AddServer("A", liveA, 0)
			fc.AddServer("B", liveB, 0)
		} else {
			staticA, err := peer.NewPartialServer(fc.Info, setA)
			if err != nil {
				return t, err
			}
			staticB, err := peer.NewPartialServer(fc.Info, setB)
			if err != nil {
				return t, err
			}
			fc.AddServer("A", staticA, 0)
			fc.AddServer("B", staticB, 0)
		}

		type outcome struct {
			res *peer.FetchResult
			err error
		}
		run := func(o *peer.Orchestrator, addrs []string, ch chan<- outcome) {
			res, err := o.Run(context.Background(), addrs...)
			ch <- outcome{res, err}
		}
		chA := make(chan outcome, 1)
		chB := make(chan outcome, 1)
		start := time.Now()
		go run(oa, []string{"S", "B"}, chA)
		go run(ob, []string{"S", "A"}, chB)
		outA, outB := <-chA, <-chB
		elapsed := time.Since(start)
		if outA.err != nil {
			return t, outA.err
		}
		if outB.err != nil {
			return t, outB.err
		}
		if !bytes.Equal(outA.res.Data, fc.Content) || !bytes.Equal(outB.res.Data, fc.Content) {
			return t, fmt.Errorf("experiment: fig1c content mismatch")
		}
		srcSymbols := 0
		for _, r := range []*peer.FetchResult{outA.res, outB.res} {
			for _, p := range r.Peers {
				if p.Addr == "S" {
					srcSymbols += p.SymbolsReceived
				}
			}
		}
		name := "fig1c download-only"
		if collaborative {
			name = "fig1c collaborative"
		}
		t.Rows = append(t.Rows, []string{name, "-", elapsed.Round(time.Millisecond).String(),
			"-", fmt.Sprintf("%d", srcSymbols)})
	}
	return t, nil
}
