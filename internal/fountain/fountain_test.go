package fountain

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"icd/internal/prng"
)

func TestDistributionBasics(t *testing.T) {
	d := IdealSoliton(100)
	var sum float64
	for deg := 1; deg <= d.MaxDegree(); deg++ {
		sum += d.PMF(deg)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
	if d.PMF(0) != 0 || d.PMF(101) != 0 {
		t.Fatal("PMF outside support non-zero")
	}
	// ρ(1) = 1/n, ρ(2) = 1/2.
	if math.Abs(d.PMF(1)-0.01) > 1e-9 {
		t.Fatalf("ρ(1) = %v", d.PMF(1))
	}
	if math.Abs(d.PMF(2)-0.5) > 1e-9 {
		t.Fatalf("ρ(2) = %v", d.PMF(2))
	}
	// Ideal soliton mean = H(n).
	var h float64
	for i := 1; i <= 100; i++ {
		h += 1 / float64(i)
	}
	if math.Abs(d.Mean()-h) > 1e-9 {
		t.Fatalf("mean = %v, want H(100) = %v", d.Mean(), h)
	}
}

func TestDrawMatchesPMF(t *testing.T) {
	d := RobustSoliton(1000, 0.03, 0.5)
	rng := prng.New(1)
	const trials = 200000
	counts := map[int]int{}
	var empMean float64
	for i := 0; i < trials; i++ {
		deg := d.Draw(rng)
		if deg < 1 || deg > d.MaxDegree() {
			t.Fatalf("degree %d out of range", deg)
		}
		counts[deg]++
		empMean += float64(deg)
	}
	empMean /= trials
	if math.Abs(empMean-d.Mean()) > 0.15*d.Mean() {
		t.Fatalf("empirical mean %v, analytic %v", empMean, d.Mean())
	}
	for _, deg := range []int{1, 2, 3} {
		want := d.PMF(deg)
		got := float64(counts[deg]) / trials
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("P(deg=%d): empirical %v, analytic %v", deg, got, want)
		}
	}
}

func TestPaperScaleDistribution(t *testing.T) {
	// E11 sanity: for the paper's 23,968 blocks the default encoding
	// distribution must be sparse with an average degree near the paper's
	// 11 (we accept the 9–17 band; `go run ./cmd/icdbench -exp coding`
	// prints the measured value).
	d := DefaultEncoding(PaperBlockCount)
	if d.Mean() < 9 || d.Mean() > 17 {
		t.Fatalf("default encoding mean degree %.2f outside [9,17]", d.Mean())
	}
}

func TestTruncatedHeavyTail(t *testing.T) {
	d := TruncatedHeavyTail(10000, 50)
	if d.MaxDegree() != 50 {
		t.Fatalf("max degree %d", d.MaxDegree())
	}
	// The folded tail puts extra mass on the cap.
	if d.PMF(50) < d.PMF(49) {
		t.Fatalf("no spike at cap: PMF(50)=%v < PMF(49)=%v", d.PMF(50), d.PMF(49))
	}
	// Cap larger than n collapses to n.
	small := TruncatedHeavyTail(10, 50)
	if small.MaxDegree() != 10 {
		t.Fatalf("max degree %d, want 10", small.MaxDegree())
	}
	one := TruncatedHeavyTail(5, 1)
	if one.MaxDegree() != 1 || one.PMF(1) != 1 {
		t.Fatal("degenerate cap broken")
	}
}

func TestDistributionPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { IdealSoliton(0) },
		func() { RobustSoliton(0, 0.03, 0.5) },
		func() { RobustSoliton(10, -1, 0.5) },
		func() { RobustSoliton(10, 0.03, 1.5) },
		func() { TruncatedHeavyTail(0, 5) },
		func() { TruncatedHeavyTail(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborsDeterministicDistinct(t *testing.T) {
	code, err := NewCode(500, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 200; id++ {
		n1 := code.Neighbors(id)
		n2 := code.Neighbors(id)
		if len(n1) != len(n2) {
			t.Fatal("non-deterministic expansion")
		}
		seen := map[int]bool{}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatal("non-deterministic expansion")
			}
			if n1[i] < 0 || n1[i] >= 500 || seen[n1[i]] {
				t.Fatalf("bad neighbor set %v", n1)
			}
			seen[n1[i]] = true
		}
		if code.Degree(id) != len(n1) {
			t.Fatalf("Degree(%d) = %d, neighbors %d", id, code.Degree(id), len(n1))
		}
	}
}

func TestCodeValidation(t *testing.T) {
	if _, err := NewCode(0, nil, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	d := IdealSoliton(100)
	if _, err := NewCode(50, d, 1); err == nil {
		t.Fatal("distribution wider than block count accepted")
	}
}

func makeContent(rng *prng.Rand, size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := prng.New(7)
	content := makeContent(rng, 500*64-13) // uneven final block
	blocks, origLen, err := SplitIntoBlocks(content, 64)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(len(blocks), nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(code, blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(code, 64)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for !dec.Done() {
		if sent > 3*len(blocks) {
			t.Fatalf("decoder stalled: %d/%d after %d symbols", dec.Recovered(), len(blocks), sent)
		}
		if _, err := dec.AddSymbol(enc.Next()); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if dec.Overhead() > 0.5 {
		t.Fatalf("overhead %.3f too large for n=500", dec.Overhead())
	}
	got, err := JoinBlocks(dec.Blocks(), origLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("decoded content differs from original")
	}
}

func TestParallelStreamsAreAdditive(t *testing.T) {
	// §2.3 "Additivity": two senders with different stream seeds produce
	// uncorrelated flows; interleaving them decodes like one flow.
	rng := prng.New(8)
	content := makeContent(rng, 300*32)
	blocks, origLen, _ := SplitIntoBlocks(content, 32)
	code, _ := NewCode(len(blocks), nil, 5)
	encA, _ := NewEncoder(code, blocks, 1001)
	encB, _ := NewEncoder(code, blocks, 2002)
	dec, _ := NewDecoder(code, 32)
	for i := 0; !dec.Done(); i++ {
		if i > 3*len(blocks) {
			t.Fatal("stalled")
		}
		if i%2 == 0 {
			dec.AddSymbol(encA.Next())
		} else {
			dec.AddSymbol(encB.Next())
		}
	}
	got, err := JoinBlocks(dec.Blocks(), origLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("parallel decode mismatch")
	}
	// The two streams should have produced essentially no duplicate IDs.
	if dec.Redundant() > dec.Received()/10 {
		t.Fatalf("too many redundant symbols across streams: %d/%d", dec.Redundant(), dec.Received())
	}
}

func TestDuplicateSymbolsRedundant(t *testing.T) {
	rng := prng.New(9)
	content := makeContent(rng, 50*16)
	blocks, _, _ := SplitIntoBlocks(content, 16)
	code, _ := NewCode(len(blocks), nil, 6)
	enc, _ := NewEncoder(code, blocks, 3)
	dec, _ := NewDecoder(code, 16)
	sym := enc.EncodeID(12345)
	if _, err := dec.AddSymbol(sym); err != nil {
		t.Fatal(err)
	}
	before := dec.Received()
	if _, err := dec.AddSymbol(sym); err != nil {
		t.Fatal(err)
	}
	if dec.Received() != before {
		t.Fatal("duplicate counted as received")
	}
	if dec.Redundant() != 1 {
		t.Fatalf("Redundant = %d, want 1", dec.Redundant())
	}
}

func TestDecoderRejectsWrongSize(t *testing.T) {
	code, _ := NewCode(10, nil, 1)
	dec, _ := NewDecoder(code, 16)
	if _, err := dec.AddSymbol(Symbol{ID: 1, Data: make([]byte, 8)}); err == nil {
		t.Fatal("wrong-size symbol accepted")
	}
	if _, err := NewDecoder(code, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestEncoderValidation(t *testing.T) {
	code, _ := NewCode(3, nil, 1)
	if _, err := NewEncoder(code, [][]byte{{1}, {2}}, 0); err == nil {
		t.Fatal("wrong block count accepted")
	}
	if _, err := NewEncoder(code, [][]byte{{1}, {2}, {3, 4}}, 0); err == nil {
		t.Fatal("ragged blocks accepted")
	}
	if _, err := NewEncoder(code, [][]byte{{}, {}, {}}, 0); err == nil {
		t.Fatal("empty blocks accepted")
	}
}

func TestPeelingCascade(t *testing.T) {
	// Hand-built example of the substitution rule (§5.4.2's y5/y8/y13
	// narrative, at the block level): receiving x0, then (x0⊕x1), then
	// (x1⊕x2) must cascade to recover all three blocks.
	code, err := NewCode(3, IdealSoliton(3), 77)
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{{0xAA}, {0xBB}, {0xCC}}
	// Find symbol ids with the neighbor sets we want.
	findID := func(want []int) uint64 {
		for id := uint64(0); id < 100000; id++ {
			n := code.Neighbors(id)
			if len(n) != len(want) {
				continue
			}
			match := true
			seen := map[int]bool{}
			for _, v := range n {
				seen[v] = true
			}
			for _, w := range want {
				if !seen[w] {
					match = false
					break
				}
			}
			if match {
				return id
			}
		}
		t.Fatalf("no symbol with neighbors %v", want)
		return 0
	}
	enc, _ := NewEncoder(code, blocks, 1)
	dec, _ := NewDecoder(code, 1)

	id01 := findID([]int{0, 1})
	id12 := findID([]int{1, 2})
	id0 := findID([]int{0})

	// Buffered: two unknowns each.
	if n, _ := dec.AddSymbol(enc.EncodeID(id01)); n != 0 {
		t.Fatalf("premature recovery: %d", n)
	}
	if n, _ := dec.AddSymbol(enc.EncodeID(id12)); n != 0 {
		t.Fatalf("premature recovery: %d", n)
	}
	// Degree-1 arrives: the cascade recovers everything.
	n, err := dec.AddSymbol(enc.EncodeID(id0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || !dec.Done() {
		t.Fatalf("cascade recovered %d, done=%v", n, dec.Done())
	}
	for i, want := range []byte{0xAA, 0xBB, 0xCC} {
		if dec.Blocks()[i][0] != want {
			t.Fatalf("block %d = %#x, want %#x", i, dec.Blocks()[i][0], want)
		}
	}
}

func TestSplitJoinValidation(t *testing.T) {
	if _, _, err := SplitIntoBlocks(nil, 4); err == nil {
		t.Fatal("empty content accepted")
	}
	if _, _, err := SplitIntoBlocks([]byte{1}, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := JoinBlocks(nil, 1); err == nil {
		t.Fatal("no blocks accepted")
	}
	if _, err := JoinBlocks([][]byte{{1, 2}}, 5); err == nil {
		t.Fatal("overlong original length accepted")
	}
	if _, err := JoinBlocks([][]byte{{1, 2}, nil}, 3); err == nil {
		t.Fatal("missing block accepted")
	}
}

// TestSplitIntoBlocksOneBuffer: the blocks are the content's bytes,
// zero-padded at the tail, in one backing array, and each is clipped to
// its own length, so an append to block i cannot write block i+1.
func TestSplitIntoBlocksOneBuffer(t *testing.T) {
	// 1400 B is no allocation size class: blocks allocated one by one
	// cannot sit back to back.
	const blockSize = DefaultBlockSize
	content := makeContent(prng.New(3), 5*blockSize-6)
	blocks, origLen, err := SplitIntoBlocks(content, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if origLen != len(content) || len(blocks) != 5 {
		t.Fatalf("%d blocks, original length %d; want 5 and %d", len(blocks), origLen, len(content))
	}
	for i, b := range blocks {
		lo := i * blockSize
		want := make([]byte, blockSize)
		copy(want, content[lo:min(lo+blockSize, len(content))])
		if !bytes.Equal(b, want) {
			t.Fatalf("block %d = %x, want %x (content, zero-padded)", i, b, want)
		}
		if i > 0 && unsafe.Add(unsafe.Pointer(&blocks[i-1][0]), blockSize) != unsafe.Pointer(&b[0]) {
			t.Fatalf("block %d does not follow block %d in one backing array", i, i-1)
		}
	}
	if &blocks[0][0] == &content[0] {
		t.Fatal("the blocks alias the caller's content")
	}
	next := bytes.Clone(blocks[1])
	if grown := append(blocks[0], 0xFF); &grown[0] == &blocks[0][0] {
		t.Fatal("an append to block 0 grew it in place")
	}
	if !bytes.Equal(blocks[1], next) {
		t.Fatal("an append to block 0 wrote block 1")
	}
}

// Property: split/join is the identity for arbitrary content and block
// sizes.
func TestQuickSplitJoinIdentity(t *testing.T) {
	f := func(data []byte, bsRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		bs := int(bsRaw)%64 + 1
		blocks, origLen, err := SplitIntoBlocks(data, bs)
		if err != nil {
			return false
		}
		got, err := JoinBlocks(blocks, origLen)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a decoded prefix of any random symbol stream, once Done,
// reproduces the source blocks exactly.
func TestQuickDecodeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := prng.New(seed)
		n := 20 + rng.Intn(60)
		content := makeContent(rng, n*8)
		blocks, origLen, err := SplitIntoBlocks(content, 8)
		if err != nil {
			return false
		}
		code, err := NewCode(len(blocks), nil, seed)
		if err != nil {
			return false
		}
		enc, err := NewEncoder(code, blocks, seed+1)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(code, 8)
		if err != nil {
			return false
		}
		for i := 0; !dec.Done(); i++ {
			if i > 20*n {
				return false // stall
			}
			if _, err := dec.AddSymbol(enc.Next()); err != nil {
				return false
			}
		}
		got, err := JoinBlocks(dec.Blocks(), origLen)
		if err != nil {
			return false
		}
		return bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeOverheadModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Identity-level overhead check at n=2000 (payload-free accounting is
	// exercised via 1-byte blocks).
	const n = 2000
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = []byte{byte(i)}
	}
	code, _ := NewCode(n, nil, 11)
	var total float64
	const trials = 5
	for tr := 0; tr < trials; tr++ {
		enc, _ := NewEncoder(code, blocks, uint64(tr))
		dec, _ := NewDecoder(code, 1)
		for i := 0; !dec.Done(); i++ {
			if i > 3*n {
				t.Fatal("stalled")
			}
			dec.AddSymbol(enc.Next())
		}
		total += dec.Overhead()
	}
	avg := total / trials
	if avg > 0.25 {
		t.Fatalf("mean decoding overhead %.3f at n=%d, want ≲ 0.25", avg, n)
	}
	t.Logf("n=%d mean decoding overhead: %.4f (paper at n=23968: 0.068)", n, avg)
}

// BenchmarkEncodeSymbol1400B times a full sender's symbol: a random id,
// its neighbor expansion and the XOR of its blocks, the payload handed
// back as a serving session does. At k=4096 the table is 5.7 MB, past
// one core's L2, as a fetch's is.
func BenchmarkEncodeSymbol1400B(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		b.Run(fmt.Sprintf("k=%d", n), func(b *testing.B) {
			rng := prng.New(1)
			content := makeContent(rng, n*DefaultBlockSize)
			blocks, _, _ := SplitIntoBlocks(content, DefaultBlockSize)
			code, _ := NewCode(n, nil, 1)
			enc, _ := NewEncoder(code, blocks, 1)
			b.SetBytes(DefaultBlockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Release(enc.Next())
			}
		})
	}
}

func BenchmarkDecode2000Blocks(b *testing.B) {
	rng := prng.New(2)
	const n = 2000
	content := makeContent(rng, n*64)
	blocks, _, _ := SplitIntoBlocks(content, 64)
	code, _ := NewCode(n, nil, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, _ := NewEncoder(code, blocks, uint64(i))
		dec, _ := NewDecoder(code, 64)
		for !dec.Done() {
			dec.AddSymbol(enc.Next())
		}
	}
}

func TestEncoderReleaseReuse(t *testing.T) {
	code, err := NewCode(32, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, 32)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		for j := range blocks[i] {
			blocks[i][j] = byte(i*7 + j)
		}
	}
	enc, err := NewEncoder(code, blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A released buffer must be recycled without leaking the previous
	// symbol's contents into the next.
	first := enc.EncodeID(1234)
	want := append([]byte(nil), first.Data...)
	enc.Release(first)
	second := enc.EncodeID(9999)
	enc.Release(second)
	again := enc.EncodeID(1234)
	if !bytes.Equal(again.Data, want) {
		t.Fatal("EncodeID not deterministic across Release/reuse")
	}
	// Foreign or wrong-size buffers are ignored, not pooled.
	enc.Release(Symbol{ID: 1, Data: make([]byte, 3)})
	if got := enc.EncodeID(1234); !bytes.Equal(got.Data, want) {
		t.Fatal("wrong-size Release corrupted the pool")
	}
}

func TestAppendNeighborsMatchesNeighbors(t *testing.T) {
	code, err := NewCode(200, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for id := uint64(0); id < 500; id++ {
		want := code.Neighbors(id)
		buf = code.AppendNeighbors(id, buf)
		if len(buf) != len(want) {
			t.Fatalf("id %d: len %d != %d", id, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("id %d: [%d] = %d != %d", id, i, buf[i], want[i])
			}
		}
	}
}

func TestEncoderNextZeroAlloc(t *testing.T) {
	code, err := NewCode(500, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, 500)
	for i := range blocks {
		blocks[i] = make([]byte, 1400)
	}
	enc, err := NewEncoder(code, blocks, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the freelist and scratch buffers, then assert the documented
	// steady-state invariant: Next+Release allocates nothing.
	for i := 0; i < 100; i++ {
		enc.Release(enc.Next())
	}
	if avg := testing.AllocsPerRun(200, func() {
		enc.Release(enc.Next())
	}); avg != 0 {
		t.Fatalf("Encoder.Next steady state allocates %.1f allocs/op, want 0", avg)
	}
}

// TestDecoderSteadyStateAllocs pins the decoder's arenas: NewDecoder
// sizes them for a whole decode, so a k=1024 decode — every symbol up to
// completion, the buffered ones and the cascades they feed — allocates
// nothing in AddSymbol but the content buffer. (The same decode,
// NewDecoder included, cost 82 allocations over 1229 symbols while the
// arenas and the seen map grew by doubling, and about seven per symbol
// before the decoder peeled on ids.)
func TestDecoderSteadyStateAllocs(t *testing.T) {
	const n, blockSize, runs = 1024, 64, 10
	rng := prng.New(11)
	blocks, _, err := SplitIntoBlocks(makeContent(rng, n*blockSize), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(n, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(code, blocks, 9)
	if err != nil {
		t.Fatal(err)
	}
	var stream []Symbol
	probe, _ := NewDecoder(code, blockSize)
	for !probe.Done() {
		sym := enc.Next()
		stream = append(stream, sym)
		if _, err := probe.AddSymbol(sym); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh decoder per run, made outside the count: AllocsPerRun's
	// warm-up and each of its runs decode the stream from the start.
	decs := make([]*Decoder, runs+1)
	for i := range decs {
		decs[i], _ = NewDecoder(code, blockSize)
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		dec := decs[next]
		next++
		for _, sym := range stream {
			dec.AddSymbol(sym)
		}
		if !dec.Done() {
			t.Error("decoder did not finish on the probed stream")
		}
	})
	if perRun != 1 {
		t.Errorf("a decode of %d symbols allocates %.0f times in AddSymbol, want 1: the content buffer",
			len(stream), perRun)
	}
}

// TestNumBlocksMatchesSplit: NumBlocks reckons the count and the errors
// SplitIntoBlocks gives, from the length alone.
func TestNumBlocksMatchesSplit(t *testing.T) {
	for _, tc := range []struct{ n, blockSize int }{{1, 1}, {7, 8}, {8, 8}, {9, 8}, {5*1400 - 6, 1400}, {0, 8}, {8, 0}, {8, -1}} {
		blocks, _, splitErr := SplitIntoBlocks(make([]byte, tc.n), tc.blockSize)
		n, err := NumBlocks(tc.n, tc.blockSize)
		if (err == nil) != (splitErr == nil) || (err != nil && err.Error() != splitErr.Error()) {
			t.Fatalf("%d bytes in blocks of %d: NumBlocks says %v, SplitIntoBlocks %v", tc.n, tc.blockSize, err, splitErr)
		}
		if err == nil && n != len(blocks) {
			t.Fatalf("%d bytes in blocks of %d: NumBlocks says %d, SplitIntoBlocks made %d", tc.n, tc.blockSize, n, len(blocks))
		}
	}
}

// TestViewBlocksAdoptsContent: ViewBlocks gives SplitIntoBlocks's blocks,
// but every whole block is the content itself, clipped to its own length
// so an append to it cannot write the next, and only a padded tail block
// is a copy.
func TestViewBlocksAdoptsContent(t *testing.T) {
	const blockSize = DefaultBlockSize
	for _, size := range []int{5*blockSize - 6, 5 * blockSize} {
		content := makeContent(prng.New(4), size)
		want, _, err := SplitIntoBlocks(content, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		blocks, origLen, err := ViewBlocks(content, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if origLen != size || len(blocks) != len(want) {
			t.Fatalf("%d bytes: %d blocks, original length %d", size, len(blocks), origLen)
		}
		for i, b := range blocks {
			if !bytes.Equal(b, want[i]) || cap(b) != blockSize {
				t.Fatalf("%d bytes: block %d differs from SplitIntoBlocks's, or has capacity %d", size, i, cap(b))
			}
			padded := (i+1)*blockSize > size
			if aliases := &b[0] == &content[i*blockSize]; aliases == padded {
				t.Fatalf("%d bytes: block %d aliases the content = %v, padded = %v", size, i, aliases, padded)
			}
		}
		next := bytes.Clone(blocks[1])
		_ = append(blocks[0], 0xFF)
		if !bytes.Equal(blocks[1], next) {
			t.Fatalf("%d bytes: an append to block 0 wrote block 1", size)
		}
	}
}

// TestDistinctSymbolsOneSlab: DistinctSymbols draws count distinct
// symbols of the stream, the encoder's own, whose payloads are views of
// one slab, each clipped to BlockSize, and together they decode the
// content.
func TestDistinctSymbolsOneSlab(t *testing.T) {
	const blockSize = 64
	content := makeContent(prng.New(5), 300*blockSize-13)
	blocks, origLen, err := ViewBlocks(content, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(len(blocks), nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	const count = 2 * 300
	symbols, err := DistinctSymbols(code, blocks, 3, count)
	if err != nil {
		t.Fatal(err)
	}
	if len(symbols) != count {
		t.Fatalf("%d symbols, want %d", len(symbols), count)
	}
	enc, err := NewEncoder(code, blocks, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ^uintptr(0), uintptr(0)
	starts := make(map[uintptr]bool, count)
	for id, data := range symbols {
		if len(data) != blockSize || cap(data) != blockSize {
			t.Fatalf("symbol %d has length %d and capacity %d, want %d", id, len(data), cap(data), blockSize)
		}
		if want := enc.EncodeID(id); !bytes.Equal(data, want.Data) {
			t.Fatalf("symbol %d is not the encoder's", id)
		}
		p := uintptr(unsafe.Pointer(&data[0]))
		if starts[p] {
			t.Fatalf("symbol %d shares its payload with another", id)
		}
		starts[p] = true
		lo, hi = min(lo, p), max(hi, p)
	}
	if hi-lo != (count-1)*blockSize {
		t.Fatalf("the payloads span %d bytes, want one slab of %d", hi-lo+blockSize, count*blockSize)
	}
	dec, err := NewDecoder(code, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range symbols {
		if dec.Done() {
			break
		}
		if _, err := dec.AddSymbol(Symbol{ID: id, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.Done() {
		t.Fatalf("decoded %d of %d blocks from %d symbols", dec.Recovered(), len(blocks), count)
	}
	got, err := JoinBlocks(dec.Blocks(), origLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("the symbols decode other content")
	}
}
