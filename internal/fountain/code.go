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
	if len(e.idx) == 0 {
		clear(data)
	} else {
		copy(data, e.blocks[e.idx[0]])
		for _, i := range e.idx[1:] {
			xorblock.XorInto(data, e.blocks[i])
		}
	}
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
// symbols using the substitution rule: each incoming symbol is reduced by
// the blocks already known; degree-1 residuals recover a block, which is
// substituted into buffered symbols, cascading (§5.4.1).
//
// Bookkeeping lives in arenas that grow by amortized doubling, so the
// steady-state AddSymbol allocates (almost) nothing per symbol: buffered
// symbols are values in buf, their unresolved-block lists are runs of
// unknowns, the per-block waiter lists are chains through waiters headed
// by waitHead, and payload buffers are carved from slabs of slabBuffers
// at a time.
type Decoder struct {
	code      *Code
	blockSize int
	blocks    [][]byte // recovered source blocks (nil = unknown)
	recovered int
	received  int // total symbols accepted (for overhead accounting)
	redundant int // symbols contributing nothing new (already-seen id or fully reduced)

	buf      []bufferedSymbol // symbols buffered with two or more unknown blocks
	unknowns []int32          // arena of the buffered symbols' unresolved block indices
	waitHead []int32          // per block: 1 + index into waiters of its first waiter, 0 = none
	waiters  []waiter
	seen     map[uint64]bool

	idx   []int // neighbor-expansion scratch
	queue []peelRec
	spare [][]byte // payload buffers freed by redundant symbols, reused
	slab  []byte   // unissued remainder of the newest payload slab
}

// slabBuffers is how many payload buffers one slab allocation holds. Slabs
// are carved on demand rather than sized for the whole content up front, so
// a decoder costs memory only for the symbols it has actually been fed.
const slabBuffers = 64

// bufferedSymbol is one buffered symbol: its reduced payload and the run
// unknowns[off:off+n] of blocks it still waits on. n drops to 0 when the
// symbol leaves the buffer (its payload moves on to the peel queue).
type bufferedSymbol struct {
	data   []byte
	off, n int32
}

// waiter is one link of a block's waiter chain: the buffered symbol
// waiting on the block, and the next link (1 + index, 0 = end).
type waiter struct {
	sym, next int32
}

type peelRec struct {
	idx  int
	data []byte
}

// drop removes block idx from ps's unresolved run, reporting whether it
// was there.
func (d *Decoder) drop(ps *bufferedSymbol, idx int32) bool {
	run := d.unknowns[ps.off : ps.off+ps.n]
	for i, u := range run {
		if u == idx {
			run[i] = run[len(run)-1]
			ps.n--
			return true
		}
	}
	return false
}

// NewDecoder prepares a decoder for the given code and block size.
func NewDecoder(code *Code, blockSize int) (*Decoder, error) {
	if blockSize < 1 {
		return nil, errors.New("fountain: non-positive block size")
	}
	if code.n > math.MaxInt32 {
		return nil, fmt.Errorf("fountain: %d source blocks exceed the decoder's index range", code.n)
	}
	return &Decoder{
		code:      code,
		blockSize: blockSize,
		blocks:    make([][]byte, code.n),
		waitHead:  make([]int32, code.n),
		seen:      make(map[uint64]bool, code.n), // completion takes at least n symbols
	}, nil
}

// getBuf returns a blockSize scratch buffer: one surrendered by a
// redundant symbol if any (so a saturated decoder stops allocating), else
// the next slice of the current slab.
func (d *Decoder) getBuf() []byte {
	if n := len(d.spare); n > 0 {
		b := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return b
	}
	if len(d.slab) < d.blockSize {
		d.slab = make([]byte, slabBuffers*d.blockSize)
	}
	b := d.slab[:d.blockSize:d.blockSize]
	d.slab = d.slab[d.blockSize:]
	return b
}

// AddSymbol ingests one symbol and runs the peeling cascade. It returns
// the number of source blocks newly recovered by this symbol (possibly
// zero — the symbol may be buffered for later, or redundant). The
// decoder copies sym.Data; the caller keeps ownership of it.
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

	// Reduce by known blocks.
	data := d.getBuf()
	copy(data, sym.Data)
	d.idx = d.code.AppendNeighbors(sym.ID, d.idx)
	unknown := d.idx[:0] // compact unknowns in place; idx is consumed left to right
	for _, i := range d.idx {
		if d.blocks[i] != nil {
			xorblock.XorInto(data, d.blocks[i])
		} else {
			unknown = append(unknown, i)
		}
	}
	before := d.recovered
	switch len(unknown) {
	case 0:
		d.redundant++ // fully reduced: nothing new
		d.spare = append(d.spare, data)
	case 1:
		d.recoverBlock(unknown[0], data)
	default:
		at := int32(len(d.buf))
		d.buf = append(d.buf, bufferedSymbol{data: data, off: int32(len(d.unknowns)), n: int32(len(unknown))})
		for _, i := range unknown {
			d.unknowns = append(d.unknowns, int32(i))
			d.waiters = append(d.waiters, waiter{sym: at, next: d.waitHead[i]})
			d.waitHead[i] = int32(len(d.waiters))
		}
	}
	return d.recovered - before, nil
}

// recoverBlock records a newly known block and propagates it through the
// buffered symbols (the substitution rule), iteratively to avoid deep
// recursion.
func (d *Decoder) recoverBlock(idx int, data []byte) {
	queue := append(d.queue[:0], peelRec{idx, data})
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if d.blocks[r.idx] != nil {
			d.spare = append(d.spare, r.data)
			continue
		}
		d.blocks[r.idx] = r.data
		d.recovered++
		w := d.waitHead[r.idx]
		d.waitHead[r.idx] = 0
		for ; w != 0; w = d.waiters[w-1].next {
			ps := &d.buf[d.waiters[w-1].sym]
			if ps.n == 0 || !d.drop(ps, int32(r.idx)) {
				continue
			}
			xorblock.XorInto(ps.data, r.data)
			if ps.n == 1 {
				// Down to one unknown: the symbol leaves the buffer and its
				// payload becomes that block (or a spare, if another path
				// recovers the block first).
				queue = append(queue, peelRec{int(d.unknowns[ps.off]), ps.data})
				ps.data, ps.n = nil, 0
			}
		}
	}
	d.queue = queue[:0] // retain capacity for the next cascade
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

// Blocks returns the recovered source blocks; entries are nil until
// recovered. The caller must not mutate them.
func (d *Decoder) Blocks() [][]byte { return d.blocks }
