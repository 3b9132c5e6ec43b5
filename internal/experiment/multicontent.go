package experiment

// multicontent.go measures the PR 5 multi-content node end to end over
// in-process pipes: a provider node serving K distinct contents from
// ONE listener (a peer.ServerMux routing HELLOs by content id), and a
// consumer node fetching 1 vs K contents concurrently under one global
// connection budget, its scheduler dividing the slots by marginal
// utility. Reported: aggregate goodput (MB/s across everything fetched)
// and per-content completion times — the numbers that show concurrent
// working sets sharing one engine instead of K processes with K
// listeners. CI archives the micro row in BENCH_pr5.json.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"icd/internal/node"
	"icd/internal/peer"
	"icd/internal/prng"
)

// MultiContentConfig sizes one multi-content node run.
type MultiContentConfig struct {
	Contents  int    // distinct content ids fetched concurrently
	N         int    // blocks per content
	BlockSize int    // bytes per block
	Seed      uint64 // drives every content's bytes
	MaxConns  int    // consumer's global connection budget
}

// MultiContentResult aggregates one run.
type MultiContentResult struct {
	Elapsed    time.Duration   // until the last content completed
	PerContent []time.Duration // completion time of each content, fetch order
	Bytes      int64           // total content bytes fetched
}

// AggregateMBps is the run's total goodput in MB/s.
func (r MultiContentResult) AggregateMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// multiNet is a tiny in-process pipe network for multi-content runs
// (SwarmFixture carries one content; here every address may serve many).
type multiNet struct {
	mu      sync.Mutex
	servers map[string]*peer.ServerMux
}

func newMultiNet() *multiNet {
	return &multiNet{servers: make(map[string]*peer.ServerMux)}
}

func (m *multiNet) add(addr string, s *peer.ServerMux) {
	m.mu.Lock()
	m.servers[addr] = s
	m.mu.Unlock()
}

func (m *multiNet) dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	s := m.servers[addr]
	m.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("experiment: no server at %q", addr)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		s.ServeConn(server)
	}()
	return client, nil
}

// buildContent creates one deterministic content and its metadata.
func buildContent(id uint64, n, blockSize int, seed uint64) (peer.ContentInfo, []byte) {
	rng := prng.New(seed ^ id)
	content := make([]byte, n*blockSize-blockSize/3)
	for i := range content {
		content[i] = byte(rng.Uint64())
	}
	return peer.ContentInfo{
		ID:        id,
		NumBlocks: n,
		BlockSize: blockSize,
		OrigLen:   len(content),
		CodeSeed:  seed ^ id ^ 0x1CD,
	}, content
}

// RunMultiContent boots a provider node serving cfg.Contents distinct
// contents behind one listener and a consumer node fetching all of them
// concurrently under cfg.MaxConns, verifying every byte. It returns
// per-content completion times and the aggregate elapsed/bytes.
func RunMultiContent(cfg MultiContentConfig) (MultiContentResult, error) {
	var res MultiContentResult
	mn := newMultiNet()

	provider := node.New(node.Options{Tick: 50 * time.Millisecond})
	defer provider.Close()
	infos := make([]peer.ContentInfo, cfg.Contents)
	contents := make([][]byte, cfg.Contents)
	for i := range infos {
		infos[i], contents[i] = buildContent(uint64(0xC0+i), cfg.N, cfg.BlockSize, cfg.Seed)
		if err := provider.ServeFull(infos[i], contents[i], true); err != nil {
			return res, err
		}
		res.Bytes += int64(len(contents[i]))
	}
	mn.add("provider", provider.Mux())

	consumer := node.New(node.Options{
		Tick:     10 * time.Millisecond,
		MaxConns: cfg.MaxConns,
		Fetch: peer.FetchOptions{
			Batch:   64,
			Timeout: time.Minute,
			Dial:    mn.dial,
		},
	})
	defer consumer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	transfers := make([]*node.Transfer, cfg.Contents)
	start := time.Now()
	for i, info := range infos {
		t, err := consumer.StartFetch(ctx, info.ID, "provider")
		if err != nil {
			return res, err
		}
		transfers[i] = t
	}
	res.PerContent = make([]time.Duration, cfg.Contents)
	type outcome struct {
		i       int
		elapsed time.Duration
		res     *peer.FetchResult
		err     error
	}
	outs := make(chan outcome, cfg.Contents)
	for i, t := range transfers {
		go func(i int, t *node.Transfer) {
			r, err := t.Wait()
			outs <- outcome{i, time.Since(start), r, err}
		}(i, t)
	}
	for range transfers {
		out := <-outs
		if out.err != nil {
			return res, fmt.Errorf("experiment: multicontent fetch %#x: %w", infos[out.i].ID, out.err)
		}
		if !bytes.Equal(out.res.Data, contents[out.i]) {
			return res, fmt.Errorf("experiment: multicontent content %#x mismatch", infos[out.i].ID)
		}
		res.PerContent[out.i] = out.elapsed
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// MultiContent is the PR 5 measurement: one node, one listener, many
// working sets — aggregate goodput and per-content completion at 1 vs 3
// concurrent contents under the same global connection budget.
func MultiContent(o Options) (Table, error) {
	o = o.withDefaults()
	n := o.N
	if n > 800 {
		n = 800 // multi-content rows measure scheduling, not box patience
	}
	t := Table{
		ID:     "multicontent",
		Title:  "multi-content node: one listener, shared connection budget (net.Pipe transports)",
		Header: []string{"scenario", "agg MB/s", "elapsed", "per-content completion"},
	}
	for _, contents := range []int{1, 3} {
		res, err := RunMultiContent(MultiContentConfig{
			Contents:  contents,
			N:         n,
			BlockSize: 1400,
			Seed:      o.Seed + 17,
			MaxConns:  6,
		})
		if err != nil {
			return t, err
		}
		times := make([]string, len(res.PerContent))
		sorted := append([]time.Duration(nil), res.PerContent...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, d := range sorted {
			times[i] = d.Round(time.Millisecond).String()
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d content(s), budget 6", contents),
			fmt.Sprintf("%.1f", res.AggregateMBps()),
			res.Elapsed.Round(time.Millisecond).String(),
			strings.Join(times, " / "),
		})
	}
	return t, nil
}
