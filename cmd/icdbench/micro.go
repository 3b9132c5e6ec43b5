package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"icd/internal/bloom"
	"icd/internal/experiment"
	"icd/internal/faultnet"
	"icd/internal/fountain"
	"icd/internal/keyset"
	"icd/internal/minwise"
	"icd/internal/obs"
	"icd/internal/peer"
	"icd/internal/prng"
	"icd/internal/recode"
	"icd/internal/xorblock"
)

// microRow is one microbenchmark result, also the JSON artifact schema
// (CI uploads the -json output as BENCH_pr2.json so decode throughput
// and the alloc budget are tracked across commits).
type microRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// runMicro prints the data-plane microbenchmarks: the word-level XOR
// kernel, summary-substrate probes, the steady-state symbol pipeline
// with its alloc budget (0 allocs/op expected on the encode, recode and
// saturated receive rows), and single- vs sharded-decoder throughput.
// These are the same hot paths bench_test.go tracks; having them in
// icdbench gives a one-command smoke check without the test harness.
// jsonPath, when non-empty, also writes the rows as a JSON array.
func runMicro(jsonPath string) {
	fmt.Println("== data-plane microbenchmarks ==")

	var rows []microRow
	row := func(name string, bytesPerOp int64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			// A b.Fatal inside fn yields a zeroed result; fail loudly
			// instead of recording a garbage row in the artifact.
			fmt.Fprintf(os.Stderr, "icdbench: benchmark %q failed\n", name)
			os.Exit(1)
		}
		entry := microRow{Name: name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
		line := fmt.Sprintf("%-28s %12.1f ns/op", name, entry.NsPerOp)
		if bytesPerOp > 0 {
			entry.MBPerS = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
			line += fmt.Sprintf(" %10.0f MB/s", entry.MBPerS)
		}
		line += fmt.Sprintf(" %8d allocs/op", entry.AllocsPerOp)
		fmt.Println(line)
		rows = append(rows, entry)
	}

	dst := make([]byte, 1400)
	src := make([]byte, 1400)
	row("xorblock 1400B", 1400, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xorblock.XorInto(dst, src)
		}
	})

	const bloomN = 100000
	filter := bloom.NewWithBitsPerElement(7, bloomN, 8, 5)
	for i := uint64(0); i < bloomN; i++ {
		filter.Add(i)
	}
	// Present keys only: a hit walks all k probes (the cost that matters).
	row("bloom contains (8b/5h)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filter.Contains(uint64(i % bloomN))
		}
	})

	set := keyset.Random(prng.New(1), 10000)
	row("minwise build 10k keys", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = minwise.Build(7, minwise.DefaultSize, set)
		}
	})

	// Observability registry hot path (PR 10): one counter add and one
	// histogram observe, the costs every instrumented subsystem pays per
	// event. Both rows must report 0 allocs/op (obs pins this with
	// testing.AllocsPerRun too).
	oreg := obs.NewRegistry()
	octr := oreg.Counter("bench.counter")
	ohist := oreg.Histogram("bench.histogram", obs.DurationBuckets)
	row("obs counter add", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			octr.Add(1)
		}
	})
	row("obs histogram observe", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ohist.Observe(float64(i % 1000))
		}
	})

	code, err := fountain.NewCode(1000, nil, 1)
	if err != nil {
		panic(err)
	}
	blocks := make([][]byte, 1000)
	for i := range blocks {
		blocks[i] = make([]byte, fountain.DefaultBlockSize)
	}
	enc, err := fountain.NewEncoder(code, blocks, 7)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		enc.Release(enc.Next())
	}
	row("fountain encode 1400B", fountain.DefaultBlockSize, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc.Release(enc.Next())
		}
	})

	domain := keyset.Random(prng.New(2), 2000)
	payloads := make(map[uint64][]byte, domain.Len())
	domain.Each(func(id uint64) {
		payloads[id] = make([]byte, fountain.DefaultBlockSize)
	})
	rec, err := recode.NewRecoder(prng.New(3), domain, recode.Options{Payloads: payloads})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 100; i++ {
		rec.Release(rec.Next(recode.Oblivious, 0))
	}
	row("recode next 1400B", fountain.DefaultBlockSize, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec.Release(rec.Next(recode.Oblivious, 0))
		}
	})

	// Decode throughput: one full decode per op, single core vs sharded,
	// on the same fixture the decode experiment and root benchmarks use.
	// MB/s is recovered content per unit time (what a downloader feels).
	const dn, dblock = 256, 8192
	dcode, stream, err := experiment.BuildDecodeFixture(dn, dblock, 9)
	if err != nil {
		panic(err)
	}
	row("fountain decode 1-core", dn*dblock, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.DriveSingleDecode(dcode, dblock, stream); err != nil {
				b.Fatal(err)
			}
		}
	})
	shards := runtime.GOMAXPROCS(0)
	row(fmt.Sprintf("fountain decode %d-shard", shards), dn*dblock, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiment.DriveShardedDecode(dcode, dblock, shards, stream); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Saturated receive path: AddSymbol on a completed sharded decoder
	// (the steady state of a finished download still draining the wire);
	// must report 0 allocs/op.
	sat, err := fountain.NewShardedDecoder(dcode, dblock, shards)
	if err != nil {
		panic(err)
	}
	defer sat.Close()
	var last fountain.Symbol
	for i := 0; !sat.Done(); i++ {
		if i > 8*dn {
			panic("saturating decoder stalled")
		}
		last = stream[i%len(stream)]
		if err := sat.AddSymbol(last); err != nil {
			panic(err)
		}
		if i%16 == 0 {
			sat.Drain()
		}
	}
	sat.Drain()
	row("receive saturated 8KiB", dblock, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sat.AddSymbol(last); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Swarm end-to-end: a whole fetch through the session/orchestrator
	// engine from an in-process full sender over net.Pipe — one fabric
	// wire with one channel behind a ServerMux, the path every node
	// uses. The row CI tracks for engine-level regressions.
	const swarmN = 600
	fix, err := experiment.BuildSwarmFixture(swarmN, 1400, 5)
	if err != nil {
		panic(err)
	}
	fullSrv, err := peer.NewFullServer(fix.Info, fix.Content)
	if err != nil {
		panic(err)
	}
	fix.AddServer("S", fullSrv, 0)
	row("swarm e2e fetch (1 full)", int64(len(fix.Content)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := experiment.DriveSwarmFetch(fix, []string{"S"},
				peer.FetchOptions{Batch: 64, Timeout: time.Minute, MaxUselessBatches: 64}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Gossip-swarm convergence (PR 4): wall clock for a 4-node swarm
	// bootstrapped from a single seed address to self-assemble over
	// gossip and finish every transfer, with the adaptive
	// refresh cadence on — the control-plane row CI tracks in
	// BENCH_pr4.json.
	row("gossip convergence (4+seed)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunGossipSwarm(experiment.GossipSwarmConfig{
				Nodes: 4, N: 150, BlockSize: 64, Seed: 7,
				Adaptive: true, RefreshBatches: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.DiscoveredUseful == 0 {
				b.Fatal("swarm completed without gossip contributing")
			}
		}
	})

	// Multi-content node (PR 5): a consumer node fetching 3 distinct
	// contents concurrently from one provider listener under a global
	// connection budget — MB/s is aggregate goodput across all three.
	// The row CI tracks in BENCH_pr5.json for scheduler regressions.
	const mcContents, mcN, mcBlock = 3, 200, 1400
	mcBytes := int64(mcContents) * int64(mcN*mcBlock-mcBlock/3)
	row("multicontent 3-fetch node", mcBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunMultiContent(experiment.MultiContentConfig{
				Contents: mcContents, N: mcN, BlockSize: mcBlock, Seed: 11, MaxConns: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Bytes != mcBytes {
				b.Fatalf("fetched %d bytes, want %d", res.Bytes, mcBytes)
			}
		}
	})

	// Hostile-swarm survival (PR 6): the same 5-node collaborative swarm
	// clean vs under 20% connection kills, 5% corrupting connections and
	// a hostile always-corrupting bootstrap peer. The pair of rows is the
	// degradation bound CI tracks in BENCH_pr6.json — chaos must stay
	// within the same order of magnitude as clean, with the hostile peer
	// banned.
	chaosCfg := experiment.ChaosSwarmConfig{Nodes: 5, N: 150, BlockSize: 64, Seed: 13}
	row("chaos swarm clean (5+seed)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunChaosSwarm(chaosCfg)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("clean chaos baseline failed to converge")
			}
		}
	})
	hostileCfg := chaosCfg
	hostileCfg.Faults = faultnet.Faults{KillProb: 0.2, KillAfter: 8 << 10, CorruptProb: 0.05}
	hostileCfg.Hostile = true
	row("chaos swarm hostile (5+seed)", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiment.RunChaosSwarm(hostileCfg)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("hostile chaos swarm failed to converge")
			}
			if res.BannedPeers == 0 {
				b.Fatal("hostile peer was never banned")
			}
		}
	})

	if jsonPath != "" {
		blob, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "icdbench: writing %s: %v\n", jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
}
