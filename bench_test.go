package icd

// One benchmark per table and figure of the paper's evaluation (the
// experiment index is `icdbench -list`). Each bench runs the
// corresponding experiment at a laptop-sized configuration and reports
// the figure's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation; cmd/icdbench prints the full
// rows/series. These are regression oracles for the paper's shapes, not
// speed claims — those are rows of `bash bench/run.sh`.

import (
	"testing"

	"icd/internal/bloom"
	"icd/internal/experiment"
	"icd/internal/fountain"
	"icd/internal/minwise"
	"icd/internal/prng"
	"icd/internal/recode"
	"icd/internal/strategy"
	"icd/internal/transfer"
	"icd/internal/xorblock"
)

// benchOpts keeps benchmark runtime moderate while preserving the shapes.
func benchOpts() experiment.Options {
	return experiment.Options{N: 1000, Trials: 2, SetSize: 5000, Diffs: 100, Seed: 42}
}

// reportSeries emits one metric per strategy at the last (highest)
// correlation point of a figure.
func reportSeries(b *testing.B, fig experiment.Figure, unit string) {
	b.Helper()
	last := len(fig.X) - 1
	for _, s := range fig.Series {
		if len(s.Y) > last {
			b.ReportMetric(s.Y[last], s.Label+"-"+unit)
		}
	}
}

// E1 — Figure 4(a): ART accuracy vs leaf/internal bit split.
func BenchmarkFig4aARTAccuracyTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// correction=5 curve peak and correction=0 at the same split.
			best5, at := 0.0, 0
			for j, y := range fig.Series[0].Y {
				if y > best5 {
					best5, at = y, j
				}
			}
			b.ReportMetric(best5, "corr5-accuracy")
			b.ReportMetric(fig.Series[5].Y[at], "corr0-accuracy")
		}
	}
}

// E2 — Table 4(b): ART accuracy by bits/element and correction level.
func BenchmarkTable4bARTAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Table4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
	}
}

// E3 — Table 4(c): Bloom filter vs ART at 8 bits per element.
func BenchmarkTable4cStructureComparison(b *testing.B) {
	o := benchOpts()
	o.SetSize = 10000
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table4cMeasure(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BloomAccuracy, "bloom-accuracy")
			b.ReportMetric(res.ARTAccuracy, "art-accuracy")
			b.ReportMetric(float64(res.BloomProbes), "bloom-probes")
			b.ReportMetric(float64(res.ARTNodesVisited), "art-nodes")
		}
	}
}

// E4 — Figure 5(a): peer-to-peer overhead, compact scenarios.
func BenchmarkFig5aOverheadCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig5(benchOpts(), true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "overhead")
		}
	}
}

// E5 — Figure 5(b): peer-to-peer overhead, stretched scenarios.
func BenchmarkFig5bOverheadStretched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig5(benchOpts(), false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "overhead")
		}
	}
}

// E6 — Figure 6(a): full+partial sender speedup, compact.
func BenchmarkFig6aSpeedupCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig6(benchOpts(), true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "speedup")
		}
	}
}

// E7 — Figure 6(b): full+partial sender speedup, stretched.
func BenchmarkFig6bSpeedupStretched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Fig6(benchOpts(), false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "speedup")
		}
	}
}

// E8 — Figure 7: two partial senders, relative rate vs one full sender.
func BenchmarkFig7TwoPartialSenders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigParallel(benchOpts(), 2, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "rate")
		}
	}
}

// E9 — Figure 8: four partial senders, relative rate vs one full sender.
func BenchmarkFig8FourPartialSenders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.FigParallel(benchOpts(), 4, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, fig, "rate")
		}
	}
}

// E11 — §6.1 coding parameters: decode overhead of the default code at
// the paper's 23,968-block scale, plus the distribution's mean degree.
func BenchmarkFountainDecodeOverhead(b *testing.B) {
	const n = fountain.PaperBlockCount
	dist := fountain.DefaultEncoding(n)
	code, err := fountain.NewCode(n, dist, 1)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = []byte{byte(i)}
	}
	b.ReportMetric(dist.Mean(), "mean-degree")
	var overhead float64
	for i := 0; i < b.N; i++ {
		enc, err := fountain.NewEncoder(code, blocks, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		dec, err := fountain.NewDecoder(code, 1)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; !dec.Done(); j++ {
			if j > 3*n {
				b.Fatal("stalled")
			}
			// AddSymbol may keep the payload until decoding ends, so it is
			// not handed back to the encoder.
			if _, err := dec.AddSymbol(enc.Next()); err != nil {
				b.Fatal(err)
			}
		}
		overhead += dec.Overhead()
	}
	b.ReportMetric(overhead/float64(b.N), "decode-overhead")
}

// E12 — Figure 1: delivery configuration comparison.
func BenchmarkFig1CollaborationModes(b *testing.B) {
	o := benchOpts()
	o.N = 500
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
	}
}

// ---- Data-plane microbenchmarks (hot-path cost and alloc budget) ----
//
// These measure the XOR engine and the allocation-free symbol
// pipeline directly: throughput in MB/s for the XOR kernel, ns/op for
// summary probes, and allocs/op for the steady-state encode/recode
// loops, which must report 0.

// BenchmarkXORBlock measures the shared XOR kernel on the paper's
// 1400-byte packet block and a 1 KiB reference size, and beside them the
// fused kernel folding a mean-degree (13) symbol's blocks into one
// 1400-byte payload, its bytes counted per source read.
func BenchmarkXORBlock(b *testing.B) {
	for _, size := range []int{1024, 1400} {
		dst := make([]byte, size)
		src := make([]byte, size)
		name := "1KiB"
		if size == 1400 {
			name = "1400B"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xorblock.XorInto(dst, src)
			}
		})
	}
	const deg = 13
	table := make([][]byte, deg)
	idx := make([]int, deg)
	for i := range table {
		table[i] = make([]byte, 1400)
		idx[i] = i
	}
	dst := make([]byte, 1400)
	b.Run("1400B-fused-d13", func(b *testing.B) {
		b.SetBytes(deg * 1400)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xorblock.XorGather(dst, table[0], table, idx[1:], -1)
		}
	})
}

// BenchmarkBloomAddContains measures the §5.2 summary hot operations at
// the paper's 8 bits/element, 5 hashes operating point with Lemire
// fast-range probe reduction.
func BenchmarkBloomAddContains(b *testing.B) {
	const n = 100000
	b.Run("add", func(b *testing.B) {
		f := bloom.NewWithBitsPerElement(7, n, 8, 5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Add(uint64(i))
		}
	})
	// Query present keys only (i % n): a hit walks all k probes, which is
	// the cost that matters; absent keys exit after ~2 probes.
	b.Run("contains", func(b *testing.B) {
		f := bloom.NewWithBitsPerElement(7, n, 8, 5)
		for i := uint64(0); i < n; i++ {
			f.Add(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Contains(uint64(i % n))
		}
	})
}

// BenchmarkMinwiseBuild measures batched permutation-major sketch
// construction (§4) against the incremental per-key path.
func BenchmarkMinwiseBuild(b *testing.B) {
	set := RandomWorkingSet(1, 10000)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = minwise.Build(7, minwise.DefaultSize, set)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := minwise.New(7, minwise.DefaultSize)
			set.Each(s.Add)
		}
	})
}

// BenchmarkEncoderNextAllocs proves the steady-state fountain encode
// path is allocation-free: Next draws payload buffers from the encoder
// freelist and Release hands them back.
func BenchmarkEncoderNextAllocs(b *testing.B) {
	code, err := fountain.NewCode(1000, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([][]byte, 1000)
	for i := range blocks {
		blocks[i] = make([]byte, fountain.DefaultBlockSize)
	}
	enc, err := fountain.NewEncoder(code, blocks, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the freelist and scratch buffers outside the measured region.
	for i := 0; i < 100; i++ {
		enc.Release(enc.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Release(enc.Next())
	}
}

// BenchmarkRecoderNextAllocs proves the steady-state recoding path
// (§5.4.2) is allocation-free under the same Release discipline.
func BenchmarkRecoderNextAllocs(b *testing.B) {
	rng := prng.New(1)
	domain := RandomWorkingSet(2, 2000)
	payloads := make(map[uint64][]byte, domain.Len())
	domain.Each(func(id uint64) {
		payloads[id] = make([]byte, fountain.DefaultBlockSize)
	})
	rec, err := recode.NewRecoder(rng, domain, recode.Options{Payloads: payloads})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec.Release(rec.Next(recode.Oblivious, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Release(rec.Next(recode.Oblivious, 0))
	}
}

// ---- Ablations (design choices §6.1 of the paper leaves open) ----

// BenchmarkAblationRecodeDomainLimit sweeps §6.1's "restrict the recoding
// domain to an appropriate small size": whole-pool recoding wins one-shot
// compact transfers, small chunks win racing scenarios (Figure 6), the
// default heuristic sits between.
func BenchmarkAblationRecodeDomainLimit(b *testing.B) {
	const n = 2000
	for _, tc := range []struct {
		name  string
		limit int
	}{
		{"whole-pool", -1},
		{"chunk256", 256},
		{"chunk-auto", 0},
		{"chunk1024", 1024},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var compact, speedup float64
			for i := 0; i < b.N; i++ {
				rng := prng.New(uint64(i))
				recv, send, err := transfer.TwoPeerScenario(rng, n, transfer.CompactStretch, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				cfg := strategy.Config{RecodeDomainLimit: tc.limit}
				res, err := transfer.Run(transfer.Config{
					Receiver: recv,
					Senders:  []transfer.SenderSpec{{Set: send, Kind: strategy.RecodeBF}},
					Target:   transfer.Target(n),
					Strategy: cfg,
					Seed:     uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				compact += res.Overhead()

				res2, err := transfer.Run(transfer.Config{
					Receiver: recv,
					Senders: []transfer.SenderSpec{
						{Full: true},
						{Set: send, Kind: strategy.RecodeBF},
					},
					Target:   transfer.Target(n),
					Strategy: cfg,
					Seed:     uint64(i) + 999,
				})
				if err != nil {
					b.Fatal(err)
				}
				speedup += transfer.Speedup(res2, transfer.RunBaselineFullSender(recv, transfer.Target(n)))
			}
			b.ReportMetric(compact/float64(b.N), "compact-overhead")
			b.ReportMetric(speedup/float64(b.N), "race-speedup")
		})
	}
}

// BenchmarkAblationDegreePolicies compares the §5.4.2 degree policies on
// one partial-sender transfer at moderate correlation.
func BenchmarkAblationDegreePolicies(b *testing.B) {
	const m = 600
	for _, tc := range []struct {
		name   string
		policy recode.DegreePolicy
		c      float64
	}{
		{"oblivious", recode.Oblivious, 0},
		{"lower-bounded", recode.LowerBounded, 0.5},
		{"minwise-scaled", recode.MinwiseScaled, 0.5},
		{"coverage-adaptive", recode.CoverageAdaptive, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				rng := prng.New(uint64(i) + 7)
				domain := RandomWorkingSet(uint64(i), m)
				rec, err := recode.NewRecoder(rng, domain, recode.Options{})
				if err != nil {
					b.Fatal(err)
				}
				dec := recode.NewDecoder(false)
				// Receiver holds half the domain (c = 0.5 policies match).
				for _, id := range domain.Sample(rng, m/2) {
					dec.AddKnown(id, nil)
				}
				sent := 0
				for dec.KnownCount() < m*19/20 {
					if sent > 30*m {
						break
					}
					dec.Add(rec.Next(tc.policy, tc.c))
					sent++
				}
				total += float64(sent) / float64(m*19/20-m/2)
			}
			b.ReportMetric(total/float64(b.N), "sends-per-useful")
		})
	}
}

// BenchmarkSketchExchange measures the full §4 handshake: build both
// sketches, serialize, estimate resemblance.
func BenchmarkSketchExchange(b *testing.B) {
	a := RandomWorkingSet(1, 10000)
	c := RandomWorkingSet(2, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa := BuildSketch(7, DefaultSketchSize, a)
		sc := BuildSketch(7, DefaultSketchSize, c)
		blob, err := sa.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var back Sketch
		if err := back.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
		if _, err := back.Resemblance(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndTransfer measures the identity-level simulator on the
// headline configuration: Recode/BF, compact, mid correlation.
func BenchmarkEndToEndTransfer(b *testing.B) {
	rng := prng.New(1)
	recv, send, err := transfer.TwoPeerScenario(rng, 2000, transfer.CompactStretch, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transfer.Run(transfer.Config{
			Receiver: recv,
			Senders:  []transfer.SenderSpec{{Set: send, Kind: strategy.RecodeBF}},
			Target:   transfer.Target(2000),
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Overhead(), "overhead")
		}
	}
}
