package fountain

import (
	"errors"
	"fmt"
	"math"

	"icd/internal/hashing"
	"icd/internal/prng"
	"icd/internal/xorblock"
)

// Code fixes the shared parameters of one encoding: the number of source
// blocks, the degree distribution, and the seed both sides use to expand
// a symbol identifier into its neighbor set. Senders and receivers must
// agree on a Code (it is part of the content's metadata, like its name).
type Code struct {
	n    int
	dist *Distribution
	seed uint64
}

// NewCode creates a code over n source blocks. If dist is nil the
// DefaultEncoding distribution for n is used.
func NewCode(n int, dist *Distribution, seed uint64) (*Code, error) {
	if n < 1 {
		return nil, errors.New("fountain: need at least one source block")
	}
	if dist == nil {
		dist = DefaultEncoding(n)
	}
	if dist.MaxDegree() > n {
		return nil, fmt.Errorf("fountain: distribution max degree %d exceeds block count %d",
			dist.MaxDegree(), n)
	}
	return &Code{n: n, dist: dist, seed: seed}, nil
}

// N returns the number of source blocks.
func (c *Code) N() int { return c.n }

// Distribution returns the degree distribution in force.
func (c *Code) Distribution() *Distribution { return c.dist }

// Neighbors expands a 64-bit symbol identifier into its source-block
// index set. The expansion is deterministic and identical on every peer:
// this is the "64-bit degree sequence representation" of §6.1 — a symbol
// on the wire is just (id, payload).
func (c *Code) Neighbors(symbolID uint64) []int {
	return c.AppendNeighbors(symbolID, nil)
}

// AppendNeighbors is Neighbors writing into buf's storage (re-sliced
// from 0, grown only if needed). Feeding the previous result back in
// makes per-symbol expansion allocation-free: the scratch PRNG lives on
// the stack and the index buffer is reused.
func (c *Code) AppendNeighbors(symbolID uint64, buf []int) []int {
	var rng prng.Rand
	rng.Reseed(hashing.Mix64Pair(c.seed, symbolID))
	deg := c.dist.Draw(&rng)
	return rng.SampleIntsInto(c.n, deg, buf)
}

// Degree returns just the degree of a symbol id (cheaper than Neighbors
// when the index set is not needed).
func (c *Code) Degree(symbolID uint64) int {
	var rng prng.Rand
	rng.Reseed(hashing.Mix64Pair(c.seed, symbolID))
	return c.dist.Draw(&rng)
}

// Symbol is one encoding symbol: its identifier and XOR payload.
type Symbol struct {
	ID   uint64
	Data []byte
}

// Encoder produces encoding symbols from a full copy of the content —
// the paper's stateless digital fountain: "senders with a copy of a file
// may continuously produce a streamed encoding of its content"
// memorylessly, so streams from different seeds are additive.
//
// Symbol payloads are drawn from an internal buffer freelist: a caller
// that hands finished payloads back via Release makes the steady-state
// EncodeID/Next path allocation-free. Callers that keep payloads (or
// never call Release) are also correct — unreturned buffers are simply
// collected by the GC. Like the embedded PRNG, the freelist is not safe
// for concurrent use; give each goroutine its own Encoder.
type Encoder struct {
	code   *Code
	blocks [][]byte
	rng    *prng.Rand
	idx    []int    // neighbor-index scratch, reused across symbols
	free   [][]byte // released payload buffers (LIFO for cache warmth)
}

// NewEncoder wraps source blocks (all the same length) in an encoder.
// streamSeed individualizes this sender's stream ("fountain flows
// generated by senders with different sources of randomness are
// uncorrelated", §2.3).
func NewEncoder(code *Code, blocks [][]byte, streamSeed uint64) (*Encoder, error) {
	if len(blocks) != code.n {
		return nil, fmt.Errorf("fountain: %d blocks given, code expects %d", len(blocks), code.n)
	}
	if len(blocks) == 0 || len(blocks[0]) == 0 {
		return nil, errors.New("fountain: empty blocks")
	}
	size := len(blocks[0])
	for i, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("fountain: block %d has size %d, want %d", i, len(b), size)
		}
	}
	return &Encoder{code: code, blocks: blocks, rng: prng.New(streamSeed)}, nil
}

// EncodeID produces the symbol with a specific identifier. The payload
// buffer comes from the encoder's freelist; pass it back via Release
// when done to keep the path allocation-free.
func (e *Encoder) EncodeID(id uint64) Symbol {
	e.idx = e.code.AppendNeighbors(id, e.idx)
	var data []byte
	if n := len(e.free); n > 0 {
		data = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		data = make([]byte, len(e.blocks[0]))
	}
	xorblock.XorGather(data, e.blocks[e.idx[0]], e.blocks, e.idx[1:], -1) // a degree is at least 1
	return Symbol{ID: id, Data: data}
}

// Next produces the next symbol of this sender's stream: a fresh random
// identifier, memorylessly drawn.
func (e *Encoder) Next() Symbol {
	return e.EncodeID(e.rng.Uint64())
}

// Release returns a symbol's payload buffer to the encoder's freelist.
// The caller must not use sym.Data afterwards. Buffers of the wrong size
// (not produced by this encoder) are ignored.
func (e *Encoder) Release(sym Symbol) {
	if len(sym.Data) != len(e.blocks[0]) {
		return
	}
	e.free = append(e.free, sym.Data)
}

// Decoder recovers the source blocks from any sufficiently large set of
// symbols with the substitution rule (§5.4.1): a symbol whose neighbors
// are all known but one recovers that one, which can leave buffered
// symbols with a single unknown in turn, cascading.
//
// The peel runs on ids: a buffered symbol keeps the count and the XOR of
// its neighbors not yet recovered, so a recovery costs each waiting
// symbol O(1) and a symbol down to one unknown names it. A payload is
// read once, by the symbol that resolves a block, whose slot in one
// contiguous content buffer becomes the payload XOR every other
// neighbor's block; a symbol that arrives fully reduced, or whose last
// unknown another symbol recovers first, costs no XOR and no copy.
// Bookkeeping lives in arenas (buffered symbols in buf, their neighbor
// lists in nbrs, per-block waiter chains in waiters headed by waitHead)
// that NewDecoder sizes once for a whole decode, so AddSymbol allocates
// nothing but the content buffer.
type Decoder struct {
	code      *Code
	blockSize int
	content   []byte   // n×blockSize, made at the first recovery: block i's slot starts at i·blockSize
	blocks    [][]byte // views of the recovered slots (nil = unknown)
	recovered int
	received  int // total symbols accepted (for overhead accounting)
	redundant int // symbols contributing nothing new (already-seen id or fully reduced)

	buf      []bufferedSymbol // symbols that arrived with two or more unknown blocks
	nbrs     []int32          // arena of the buffered symbols' neighbor lists
	waitHead []int32          // per block: 1 + index into waiters of its first waiter, 0 = none
	waiters  []waiter
	seen     map[uint64]bool

	idx   []int   // neighbor-expansion scratch
	queue []int32 // cascade scratch: recovered blocks whose waiters are still to be told
}

// bufferedSymbol is one buffered symbol: the caller's payload, its
// neighbor list nbrs[off:off+deg], and left and xr, the count and the XOR
// of the neighbors whose recovery it has not been told of yet. Once left
// is 1, xr is the last unknown; data is dropped when the symbol has
// resolved it or found it resolved.
type bufferedSymbol struct {
	data               []byte
	off, deg, left, xr int32
}

// waiter is one link of a block's waiter chain: the buffered symbol
// waiting on the block, and the next link (1 + index, 0 = end).
type waiter struct {
	sym, next int32
}

// NewDecoder prepares a decoder for the given code and block size.
func NewDecoder(code *Code, blockSize int) (*Decoder, error) {
	if blockSize < 1 {
		return nil, errors.New("fountain: non-positive block size")
	}
	if code.n > math.MaxInt32 {
		return nil, fmt.Errorf("fountain: %d source blocks exceed the decoder's index range", code.n)
	}
	// Over the k-sweep (k = 256 … 16384, 20 streams each) a decode ended
	// with buf at 1.03–1.14·n and nbrs and waiters at 1.02–1.21·n·mean
	// (medians), having taken 1.04–1.23·n symbols; 5/4 of that covers 18
	// to 20 decodes in 20 for k ≥ 1024. An arena past its size still grows.
	n := code.n
	want := n + n/4
	links := int(float64(want) * code.dist.Mean())
	return &Decoder{
		code:      code,
		blockSize: blockSize,
		blocks:    make([][]byte, n),
		buf:       make([]bufferedSymbol, 0, want),
		nbrs:      make([]int32, 0, links+n), // + n: the transient list of one symbol of any degree
		waitHead:  make([]int32, n),
		waiters:   make([]waiter, 0, links),
		seen:      make(map[uint64]bool, want),
		idx:       make([]int, 0, want), // AppendNeighbors needs at most 5/4·n, for its dedup table
		queue:     make([]int32, 0, n),  // a cascade recovers each block once
	}, nil
}

// AddSymbol ingests one symbol and runs the peeling cascade. It returns
// the number of source blocks newly recovered by this symbol (possibly
// zero — the symbol may be buffered for later, or redundant). The decoder
// never writes sym.Data, nor copies it: a symbol buffered with two or more
// unknown blocks is kept by reference, so the caller must leave sym.Data
// unchanged until Done (or until it drops the decoder).
func (d *Decoder) AddSymbol(sym Symbol) (int, error) {
	if len(sym.Data) != d.blockSize {
		return 0, fmt.Errorf("fountain: symbol size %d, want %d", len(sym.Data), d.blockSize)
	}
	if d.seen[sym.ID] {
		d.redundant++
		return 0, nil
	}
	d.seen[sym.ID] = true
	d.received++

	// Count the unknown neighbors and XOR their indices. The neighbor list
	// goes on the arena, where it stays only if the symbol is buffered.
	d.idx = d.code.AppendNeighbors(sym.ID, d.idx)
	off := len(d.nbrs)
	var left, xr int32
	for _, i := range d.idx {
		d.nbrs = append(d.nbrs, int32(i))
		if d.blocks[i] == nil {
			left++
			xr ^= int32(i)
		}
	}
	before := d.recovered
	switch left {
	case 0:
		d.redundant++ // fully reduced: nothing new
	case 1:
		d.resolve(xr, sym.Data, d.nbrs[off:])
	default:
		at := int32(len(d.buf))
		d.buf = append(d.buf, bufferedSymbol{data: sym.Data, off: int32(off), deg: int32(len(d.idx)), left: left, xr: xr})
		for _, i := range d.idx {
			if d.blocks[i] == nil {
				d.waiters = append(d.waiters, waiter{sym: at, next: d.waitHead[i]})
				d.waitHead[i] = int32(len(d.waiters))
			}
		}
		return 0, nil
	}
	d.nbrs = d.nbrs[:off]
	return d.recovered - before, nil
}

// resolve recovers block u from data, the payload of a symbol whose other
// neighbors (in nbrs) are all known, then runs the cascade, iteratively to
// avoid deep recursion: every symbol waiting on a recovered block is told
// of it, and one left with a single unknown resolves that block in turn.
func (d *Decoder) resolve(u int32, data []byte, nbrs []int32) {
	d.write(u, data, nbrs)
	queue := append(d.queue[:0], u)
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		w := d.waitHead[b]
		d.waitHead[b] = 0
		for ; w != 0; w = d.waiters[w-1].next {
			ps := &d.buf[d.waiters[w-1].sym]
			ps.left--
			ps.xr ^= b
			if ps.left != 1 {
				continue
			}
			// Down to one unknown: resolve it, unless another symbol has (it
			// is still queued then, and telling this symbol of it takes left to 0).
			if v := ps.xr; d.blocks[v] == nil {
				d.write(v, ps.data, d.nbrs[ps.off:ps.off+ps.deg])
				queue = append(queue, v)
			}
			ps.data = nil
		}
	}
	d.queue = queue[:0] // retain capacity for the next cascade
}

// write fills block u's slot with data XOR the blocks of every neighbor in
// nbrs other than u, all of them known, in one pass over the slot, and
// records u recovered.
func (d *Decoder) write(u int32, data []byte, nbrs []int32) {
	if d.content == nil { // made here, not in NewDecoder: off the caller's set-up path
		d.content = make([]byte, d.code.n*d.blockSize)
	}
	lo := int(u) * d.blockSize
	slot := d.content[lo : lo+d.blockSize : lo+d.blockSize]
	xorblock.XorGather(slot, data, d.blocks, nbrs, u)
	d.blocks[u] = slot
	d.recovered++
}

// Done reports whether every source block has been recovered.
func (d *Decoder) Done() bool { return d.recovered == d.code.n }

// Recovered returns the number of recovered source blocks.
func (d *Decoder) Recovered() int { return d.recovered }

// Received returns the number of distinct symbols accepted.
func (d *Decoder) Received() int { return d.received }

// Redundant returns the number of symbols that contributed nothing.
func (d *Decoder) Redundant() int { return d.redundant }

// Overhead returns received/n − 1, defined once decoding is complete; the
// paper's "decoding overhead of 1+c if (1+c)·` symbols are needed".
// Before completion it reports the overhead so far (pessimistic).
func (d *Decoder) Overhead() float64 {
	return float64(d.received)/float64(d.code.n) - 1
}

// Blocks returns the recovered source blocks, views into the content
// buffer; entries are nil until recovered. The caller must not mutate them.
func (d *Decoder) Blocks() [][]byte { return d.blocks }

// Content returns the decoded content's first origLen bytes without a
// copy, sharing memory with Blocks. It is an error before Done.
func (d *Decoder) Content(origLen int) ([]byte, error) {
	if !d.Done() {
		return nil, fmt.Errorf("fountain: %d of %d blocks recovered", d.recovered, d.code.n)
	}
	if origLen < 1 || origLen > len(d.content) {
		return nil, fmt.Errorf("fountain: original length %d outside (0, %d]", origLen, len(d.content))
	}
	return d.content[:origLen:origLen], nil
}
