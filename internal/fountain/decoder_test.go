package fountain

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"icd/internal/prng"
)

// refPeeler is the substitution rule at its plainest, on ids only: every
// accepted symbol's neighbor set, swept whole until no symbol has exactly
// one unknown neighbor. The Decoder's bookkeeping must reach the same
// closure after every symbol.
type refPeeler struct {
	code      *Code
	known     []bool
	syms      [][]int
	seen      map[uint64]bool
	recovered int
	redundant int
}

func newRefPeeler(code *Code) *refPeeler {
	return &refPeeler{code: code, known: make([]bool, code.N()), seen: map[uint64]bool{}}
}

func (p *refPeeler) add(id uint64) {
	if p.seen[id] {
		p.redundant++
		return
	}
	p.seen[id] = true
	nbrs := p.code.Neighbors(id)
	unknown := 0
	for _, b := range nbrs {
		if !p.known[b] {
			unknown++
		}
	}
	if unknown == 0 {
		p.redundant++
		return
	}
	p.syms = append(p.syms, nbrs)
	for progress := true; progress; {
		progress = false
		for _, s := range p.syms {
			unknown, last := 0, -1
			for _, b := range s {
				if !p.known[b] {
					unknown, last = unknown+1, b
				}
			}
			if unknown == 1 {
				p.known[last] = true
				p.recovered++
				progress = true
			}
		}
	}
}

// TestDecoderMatchesReferencePeeler: over random streams at several n,
// under DefaultEncoding (degrees up to n) and IdealSoliton, with repeated
// symbols mixed in, the Decoder recovers exactly the reference's blocks
// after every AddSymbol, counts the same redundant symbols, and its
// recovered bytes are the source's.
func TestDecoderMatchesReferencePeeler(t *testing.T) {
	const blockSize = 16
	for _, n := range []int{1, 2, 17, 100, 400} {
		for _, dist := range []*Distribution{DefaultEncoding(n), IdealSoliton(n)} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, dist.Name(), seed), func(t *testing.T) {
					rng := prng.New(seed)
					content := makeContent(rng, n*blockSize)
					blocks, _, _ := SplitIntoBlocks(content, blockSize)
					code, err := NewCode(n, dist, seed)
					if err != nil {
						t.Fatal(err)
					}
					enc, _ := NewEncoder(code, blocks, seed+7)
					dec, _ := NewDecoder(code, blockSize)
					ref := newRefPeeler(code)
					var sent []Symbol
					for i := 0; i < 4*n+20; i++ {
						sym := enc.Next()
						if len(sent) > 0 && rng.Intn(8) == 0 {
							sym = sent[rng.Intn(len(sent))] // a repeat
						} else {
							sent = append(sent, sym)
						}
						gained, err := dec.AddSymbol(sym)
						if err != nil {
							t.Fatal(err)
						}
						before := ref.recovered
						ref.add(sym.ID)
						if gained != ref.recovered-before || dec.Recovered() != ref.recovered ||
							dec.Redundant() != ref.redundant || dec.Received() != len(ref.seen) {
							t.Fatalf("symbol %d: decoder gained %d, %d recovered, %d redundant, %d received; reference %d, %d, %d, %d",
								i, gained, dec.Recovered(), dec.Redundant(), dec.Received(),
								ref.recovered-before, ref.recovered, ref.redundant, len(ref.seen))
						}
						for b, known := range ref.known {
							if (dec.Blocks()[b] != nil) != known {
								t.Fatalf("symbol %d: block %d recovered=%v, reference %v", i, b, !known, known)
							}
						}
					}
					for b, got := range dec.Blocks() {
						if got != nil && !bytes.Equal(got, blocks[b]) {
							t.Fatalf("block %d decoded wrong", b)
						}
					}
				})
			}
		}
	}
}

// TestDecoderNeverWritesItsInput: the decoder keeps buffered payloads by
// reference and reads them when they resolve a block, but never writes
// one. Every fed payload's checksum is the same after a full decode, and
// under -race a second goroutine reading the same buffers throughout
// would expose any write.
func TestDecoderNeverWritesItsInput(t *testing.T) {
	const n, blockSize = 300, 64
	rng := prng.New(5)
	content := makeContent(rng, n*blockSize)
	blocks, _, _ := SplitIntoBlocks(content, blockSize)
	code, _ := NewCode(n, nil, 3)
	enc, _ := NewEncoder(code, blocks, 4)
	var stream []Symbol
	var sums []uint32 // taken before any decoder sees the payload
	for probe, _ := NewDecoder(code, blockSize); !probe.Done(); {
		sym := enc.Next()
		stream = append(stream, sym)
		sums = append(sums, crc32.ChecksumIEEE(sym.Data))
		probe.AddSymbol(sym)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, sym := range stream {
				crc32.ChecksumIEEE(sym.Data)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	dec, _ := NewDecoder(code, blockSize)
	for _, sym := range stream {
		if _, err := dec.AddSymbol(sym); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, err := dec.Content(len(content)); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("the probed stream did not decode to the content (err=%v)", err)
	}
	for i, sym := range stream {
		if crc32.ChecksumIEEE(sym.Data) != sums[i] {
			t.Fatalf("payload %d changed under the decoder", i)
		}
	}
}

// TestDecoderContent: Content is the joined blocks without a copy — the
// same bytes JoinBlocks makes, in the memory Blocks views — and an error
// before Done or for a length the blocks cannot hold.
func TestDecoderContent(t *testing.T) {
	const blockSize = 32
	rng := prng.New(9)
	content := makeContent(rng, 200*blockSize-5)
	blocks, origLen, _ := SplitIntoBlocks(content, blockSize)
	code, _ := NewCode(len(blocks), nil, 2)
	enc, _ := NewEncoder(code, blocks, 3)
	dec, _ := NewDecoder(code, blockSize)
	for !dec.Done() {
		if _, err := dec.Content(origLen); err == nil {
			t.Fatalf("Content succeeded at %d of %d blocks", dec.Recovered(), len(blocks))
		}
		dec.AddSymbol(enc.Next())
	}
	got, err := dec.Content(origLen)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := JoinBlocks(dec.Blocks(), origLen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, joined) || !bytes.Equal(got, content) {
		t.Fatal("Content differs from the joined blocks")
	}
	for i, b := range dec.Blocks() { // every block starts inside origLen here
		if &b[0] != &got[i*blockSize] {
			t.Fatalf("block %d is not a view of the content", i)
		}
	}
	for _, bad := range []int{0, -1, len(blocks)*blockSize + 1} {
		if _, err := dec.Content(bad); err == nil {
			t.Fatalf("Content(%d) accepted", bad)
		}
	}
}

// TestAppendNeighborsZeroAllocHighDegree: expanding a symbol of degree
// above SampleIntsInto's scan limit allocates nothing once the buffer is
// warm — its dedup table lives in the buffer's spare capacity.
func TestAppendNeighborsZeroAllocHighDegree(t *testing.T) {
	code, err := NewCode(4096, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	for deg := code.Degree(id); deg <= 64 || 4*deg >= code.N(); deg = code.Degree(id) {
		id++
	}
	buf := code.AppendNeighbors(id, nil)
	if avg := testing.AllocsPerRun(100, func() {
		buf = code.AppendNeighbors(id, buf)
	}); avg != 0 {
		t.Fatalf("AppendNeighbors at degree %d allocates %.1f per call, want 0", len(buf), avg)
	}
}

// BenchmarkDecode is the plain decoder's k-sweep at the paper's 1400 B
// blocks: one whole decode of a pre-encoded stream per iteration,
// reported per symbol fed. At k = 16384 the content is 23 MB, well past
// the caches.
func BenchmarkDecode(b *testing.B) {
	for _, k := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := prng.New(uint64(k))
			blocks, _, _ := SplitIntoBlocks(makeContent(rng, k*DefaultBlockSize), DefaultBlockSize)
			code, _ := NewCode(k, nil, 1)
			enc, _ := NewEncoder(code, blocks, 2)
			var stream []Symbol
			for probe, _ := NewDecoder(code, DefaultBlockSize); !probe.Done(); {
				sym := enc.Next()
				stream = append(stream, sym)
				probe.AddSymbol(sym)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, _ := NewDecoder(code, DefaultBlockSize)
				for _, sym := range stream {
					dec.AddSymbol(sym)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/symbol")
		})
	}
}
