package fountain

// sharded.go is the multi-core peeling decoder: source blocks are
// partitioned round-robin across S shards, each owned by one worker
// goroutine, so one receiver can absorb symbol batches "as fast as the
// hardware allows" (§5.4/§6 of the paper). See the package doc of the
// root module (doc.go, "Data-plane performance model") for the full
// receive-path model; the short version:
//
//   - Block b is owned by shard b mod S. All XOR work involving b —
//     reduction of incoming symbols, recovery, cascade propagation —
//     happens on b's owner, so payload traffic parallelizes across
//     owners and a block's bytes stay in one core's cache.
//
//   - A symbol whose neighbors all live in one shard is routed straight
//     to it and handled exactly like the single-core decoder handles it
//     (local pending index, local cascade).
//
//   - A cross-shard symbol hops from owner to owner: each shard XORs out
//     the owned blocks it has recovered and forwards the remainder to
//     the next unvisited shard (a uint64 visited mask bounds shards at
//     MaxShards). A remaining degree-1 symbol is the missing block's
//     value and is sent to that block's owner for recovery. A symbol
//     that every involved shard has seen parks at a small coordinator,
//     which does no payload work at all: it only indexes parked symbols
//     by their unknown blocks and, when a shard announces a recovery,
//     re-dispatches the waiters to that shard with a fresh mask.
//
// Buffer ownership: AddSymbol copies the caller's payload into a buffer
// from the decoder's freelist (the caller keeps ownership of sym.Data,
// exactly like Decoder.AddSymbol). From then on exactly one component
// owns each buffer — the message in flight, the parked symbol, or the
// recovered block — and redundant symbols return theirs to the freelist,
// so a saturated decoder stops allocating. Close reclaims the buffers of
// still-parked symbols; recovered blocks keep theirs for Blocks().

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icd/internal/bitset"
	"icd/internal/xorblock"
)

// MaxShards bounds the shard count of a ShardedDecoder: cross-shard
// routing tracks the set of visited shards in a 64-bit mask.
const MaxShards = 64

// shardMsg is one unit of decode work in flight between shards: a
// payload and the block indices not yet XORed out of it. Exactly one
// goroutine owns a message (and its buffers) at a time.
type shardMsg struct {
	data     []byte
	unknown  []int  // unresolved block indices
	visited  uint64 // shards that have already reduced this symbol
	buffered bool   // resumed from a parked state: its death is cascade bookkeeping, not redundancy
}

// coordMsg is the coordinator's input: either a recovery announcement
// (announce ≥ 0) or a cross-shard symbol to park (announce < 0).
type coordMsg struct {
	announce int
	sym      shardMsg
}

// mailbox is an unbounded multi-producer single-consumer queue. Being
// unbounded is what makes the shard↔coordinator message cycle
// deadlock-free: no push ever blocks.
type mailbox[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	q      []T
	closed bool
}

func newMailbox[T any]() *mailbox[T] {
	mb := &mailbox[T]{}
	mb.cond.L = &mb.mu
	return mb
}

func (mb *mailbox[T]) push(v T) {
	mb.mu.Lock()
	mb.q = append(mb.q, v)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// drain blocks until messages arrive or the mailbox closes, then swaps
// the queue with spare (so the worker's batch slice is recycled and the
// steady state allocates nothing). The bool is false when the worker
// should exit: closed and nothing left.
func (mb *mailbox[T]) drain(spare []T) ([]T, bool) {
	mb.mu.Lock()
	for len(mb.q) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	batch := mb.q
	mb.q = spare[:0]
	closed := mb.closed
	mb.mu.Unlock()
	return batch, len(batch) > 0 || !closed
}

func (mb *mailbox[T]) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// ShardedDecoder is a Decoder that peels on multiple cores. It is safe
// for concurrent AddSymbol calls from any number of feeder goroutines
// (peer receive loops, for instance); decode work happens asynchronously
// on the shard workers, so Done and Recovered may lag AddSymbol by the
// symbols still in flight — call Drain to wait for quiescence before
// reading Blocks or making a final completion decision.
//
// Close must not run concurrently with AddSymbol: stop the feeders, then
// Close. All accessors (Done, Recovered, Blocks, Overhead, …) remain
// valid after Close.
type ShardedDecoder struct {
	code      *Code
	blockSize int
	numShards int

	blocks []([]byte) // shard s writes only indices ≡ s (mod numShards)

	shards []*decodeShard
	coord  *coordinator

	recovered atomic.Int64

	mu        sync.Mutex // guards seen/counters/inflight; cond signals inflight==0
	cond      sync.Cond
	seen      map[uint64]struct{}
	received  int
	redundant int
	inflight  int
	closed    bool

	bufMu    sync.Mutex // freelists (separate lock: shards release while feeders borrow)
	freeBufs [][]byte
	freeInts [][]int
	bufsOut  int // borrowed minus released: the buffer-accounting invariant tests check

	wg sync.WaitGroup
}

// decodeShard owns the blocks ≡ id (mod numShards) and all XOR work on
// them. pending/parked index the buffered symbols whose every unknown
// block is owned here.
type decodeShard struct {
	d       *ShardedDecoder
	id      int
	box     *mailbox[shardMsg]
	pending map[int][]int // owned block -> indices into parked
	parked  []*pendingSymbol
	queue   []peelRec // cascade scratch, reused
}

// pendingSymbol is one symbol parked on a shard with two or more of its
// owned blocks still unknown.
type pendingSymbol struct {
	data    []byte
	unknown []int // unresolved block indices
	dead    bool
}

func (ps *pendingSymbol) drop(idx int) bool {
	for i, u := range ps.unknown {
		if u == idx {
			last := len(ps.unknown) - 1
			ps.unknown[i] = ps.unknown[last]
			ps.unknown = ps.unknown[:last]
			return true
		}
	}
	return false
}

// coordinator parks cross-shard symbols that every involved shard has
// reduced, indexed by their unknown blocks. It never touches payloads:
// a recovery announcement just re-dispatches the waiters to the
// recovering shard, which owns the block's bytes.
type coordinator struct {
	d       *ShardedDecoder
	box     *mailbox[coordMsg]
	known   *bitset.Set   // blocks announced recovered (closes the announce-then-park race)
	waiting map[int][]int // block -> indices into parked
	parked  []*crossSym
}

type crossSym struct {
	sym  shardMsg
	dead bool
}

// peelRec is one entry of a shard's cascade queue: a block and the
// payload that recovers it.
type peelRec struct {
	idx  int
	data []byte
}

// NewShardedDecoder prepares a decoder that peels on `shards` worker
// goroutines (shards ≤ 0 selects GOMAXPROCS; the count is clamped to
// [1, min(MaxShards, n)]). A ShardedDecoder must be Closed when done to
// stop its workers.
func NewShardedDecoder(code *Code, blockSize, shards int) (*ShardedDecoder, error) {
	if blockSize < 1 {
		return nil, errors.New("fountain: non-positive block size")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	if shards > code.n {
		shards = code.n
	}
	d := &ShardedDecoder{
		code:      code,
		blockSize: blockSize,
		numShards: shards,
		blocks:    make([][]byte, code.n),
		seen:      make(map[uint64]struct{}),
	}
	d.cond.L = &d.mu
	for s := 0; s < shards; s++ {
		d.shards = append(d.shards, &decodeShard{
			d:       d,
			id:      s,
			box:     newMailbox[shardMsg](),
			pending: make(map[int][]int),
		})
	}
	d.coord = &coordinator{
		d:       d,
		box:     newMailbox[coordMsg](),
		known:   bitset.New(code.n),
		waiting: make(map[int][]int),
	}
	d.wg.Add(shards + 1)
	for _, sh := range d.shards {
		go sh.run()
	}
	go d.coord.run()
	return d, nil
}

// NumShards returns the number of shard workers in use.
func (d *ShardedDecoder) NumShards() int { return d.numShards }

// owner maps a block index to the shard that holds it.
func (d *ShardedDecoder) owner(block int) int { return block % d.numShards }

// ---- freelists ----

// borrowBuf borrows a blockSize payload buffer from the freelist.
func (d *ShardedDecoder) borrowBuf() []byte {
	d.bufMu.Lock()
	var b []byte
	if n := len(d.freeBufs); n > 0 {
		b = d.freeBufs[n-1]
		d.freeBufs = d.freeBufs[:n-1]
	}
	d.bufsOut++
	d.bufMu.Unlock()
	if b == nil {
		b = make([]byte, d.blockSize)
	}
	return b
}

// returnBuf returns a payload buffer; the caller must not use it afterwards.
func (d *ShardedDecoder) returnBuf(b []byte) {
	d.bufMu.Lock()
	d.freeBufs = append(d.freeBufs, b)
	d.bufsOut--
	d.bufMu.Unlock()
}

// getInts borrows an empty index slice (capacity retained across uses).
func (d *ShardedDecoder) getInts() []int {
	d.bufMu.Lock()
	var u []int
	if n := len(d.freeInts); n > 0 {
		u = d.freeInts[n-1][:0]
		d.freeInts = d.freeInts[:n-1]
	}
	d.bufMu.Unlock()
	return u
}

func (d *ShardedDecoder) putInts(u []int) {
	d.bufMu.Lock()
	d.freeInts = append(d.freeInts, u[:0])
	d.bufMu.Unlock()
}

// outstandingBuffers reports borrowed-minus-released payload buffers.
// After Close this must equal Recovered() — each recovered block keeps
// exactly one buffer — which is the no-double-release/no-lost-buffer
// invariant the race tests assert.
func (d *ShardedDecoder) outstandingBuffers() int {
	d.bufMu.Lock()
	defer d.bufMu.Unlock()
	return d.bufsOut
}

// ---- in-flight accounting (Drain support) ----

// finishMany retires n processed messages (workers batch the decrement
// so the in-flight lock is touched once per drained batch, not once per
// message).
func (d *ShardedDecoder) finishMany(n int) {
	d.mu.Lock()
	d.inflight -= n
	if d.inflight == 0 {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// send forwards a message to a shard, moving its in-flight token with it.
func (d *ShardedDecoder) send(target int, m shardMsg) {
	d.mu.Lock()
	d.inflight++
	d.mu.Unlock()
	d.shards[target].box.push(m)
}

func (d *ShardedDecoder) sendCoord(m coordMsg) {
	d.mu.Lock()
	d.inflight++
	d.mu.Unlock()
	d.coord.box.push(m)
}

// ---- ingest ----

// AddSymbol ingests one symbol, routing it by its neighbor footprint to
// the shard owning the plurality of its blocks. The decoder copies
// sym.Data (into a freelist buffer); the caller keeps ownership. Safe
// for concurrent use. Decode effects are asynchronous: use Done for a
// fast (possibly lagging) completion check and Drain for a precise one.
func (d *ShardedDecoder) AddSymbol(sym Symbol) error {
	if len(sym.Data) != d.blockSize {
		return fmt.Errorf("fountain: symbol size %d, want %d", len(sym.Data), d.blockSize)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("fountain: decoder closed")
	}
	if _, dup := d.seen[sym.ID]; dup {
		d.redundant++
		d.mu.Unlock()
		return nil
	}
	d.seen[sym.ID] = struct{}{}
	d.received++
	if d.recovered.Load() == int64(d.code.n) {
		// Already complete: every further symbol reduces to nothing.
		d.redundant++
		d.mu.Unlock()
		return nil
	}
	d.inflight++
	d.mu.Unlock()

	d.route(sym)
	return nil
}

// route expands a symbol's neighbors and pushes it to its starting
// shard. The caller must already hold an in-flight token for it (the
// router-lock bookkeeping of AddSymbol/AddSymbols). Neighbor expansion
// needs only the shared code (stack PRNG inside), so it runs outside the
// lock: concurrent feeders do not serialize on anything but the seen-map
// check.
func (d *ShardedDecoder) route(sym Symbol) {
	u := d.code.AppendNeighbors(sym.ID, d.getInts())
	data := d.borrowBuf()
	copy(data, sym.Data)

	// Footprint routing: start at the shard owning the most neighbors, so
	// the first reduction hop does the most XOR work and purely local
	// symbols take zero extra hops.
	var counts [MaxShards]int32
	target, best := d.owner(u[0]), int32(0)
	for _, b := range u {
		s := d.owner(b)
		counts[s]++
		if counts[s] > best {
			best, target = counts[s], s
		}
	}
	d.shards[target].box.push(shardMsg{data: data, unknown: u})
}

// symbolBatches recycles the accepted-symbol scratch of AddSymbols so a
// steady-state batched receive loop allocates nothing per batch.
var symbolBatches = sync.Pool{
	New: func() any {
		s := make([]Symbol, 0, 64)
		return &s
	},
}

// AddSymbols ingests a batch of symbols, taking the router lock once for
// the whole batch instead of once per symbol — the path a receive loop
// that drains frames in batches should use (≈len(syms)× fewer
// lock/unlock pairs under feeder contention). Semantics match calling
// AddSymbol in order: duplicates are counted redundant, the decoder
// copies each payload, and decode effects are asynchronous.
func (d *ShardedDecoder) AddSymbols(syms []Symbol) error {
	if len(syms) == 0 {
		return nil
	}
	for _, sym := range syms {
		if len(sym.Data) != d.blockSize {
			return fmt.Errorf("fountain: symbol size %d, want %d", len(sym.Data), d.blockSize)
		}
	}
	bp := symbolBatches.Get().(*[]Symbol)
	accepted := (*bp)[:0]
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		symbolBatches.Put(bp)
		return errors.New("fountain: decoder closed")
	}
	for _, sym := range syms {
		if _, dup := d.seen[sym.ID]; dup {
			d.redundant++
			continue
		}
		d.seen[sym.ID] = struct{}{}
		d.received++
		if d.recovered.Load() == int64(d.code.n) {
			// Already complete: every further symbol reduces to nothing.
			d.redundant++
			continue
		}
		accepted = append(accepted, sym)
	}
	d.inflight += len(accepted)
	d.mu.Unlock()

	for _, sym := range accepted {
		d.route(sym)
	}
	*bp = accepted[:0]
	symbolBatches.Put(bp)
	return nil
}

// AddStream feeds a pre-encoded symbol stream until the decoder
// completes or the stream runs out, returning whether decoding
// completed. Once completion is possible (n symbols in) it settles the
// pipeline periodically so a tight feeder cannot outrun the workers and
// overfeed the decoder — the drive loop of the benchmark's
// fountain.decode_sharded_ns_per_symbol row.
func (d *ShardedDecoder) AddStream(stream []Symbol) (bool, error) {
	for i, sym := range stream {
		if err := d.AddSymbol(sym); err != nil {
			return false, err
		}
		if i >= d.code.n && i%16 == 0 {
			d.Drain()
			if d.Done() {
				return true, nil
			}
		}
	}
	d.Drain()
	return d.Done(), nil
}

// Drain blocks until every in-flight symbol has settled (recovered a
// block, parked, or proven redundant). After Drain with no concurrent
// feeders, Done/Recovered/Blocks reflect everything added.
func (d *ShardedDecoder) Drain() {
	d.mu.Lock()
	for d.inflight > 0 {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Close waits for in-flight work, stops the workers and reclaims the
// buffers of still-parked symbols. It is idempotent. Feeders must have
// stopped before Close is called.
func (d *ShardedDecoder) Close() error {
	d.Drain()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	for _, s := range d.shards {
		s.box.close()
	}
	d.coord.box.close()
	d.wg.Wait()
	for _, s := range d.shards {
		for _, ps := range s.parked {
			if !ps.dead {
				ps.dead = true
				d.returnBuf(ps.data)
				d.putInts(ps.unknown)
			}
		}
		s.parked, s.pending = nil, nil
	}
	for _, cs := range d.coord.parked {
		if !cs.dead {
			cs.dead = true
			d.returnBuf(cs.sym.data)
			d.putInts(cs.sym.unknown)
		}
	}
	d.coord.parked, d.coord.waiting = nil, nil
	return nil
}

// ---- accessors (Decoder-compatible) ----

// Done reports whether every source block has been recovered. It may lag
// recent AddSymbol calls by the symbols still in flight; Drain first for
// an exact answer.
func (d *ShardedDecoder) Done() bool { return d.recovered.Load() == int64(d.code.n) }

// Recovered returns the number of recovered source blocks so far.
func (d *ShardedDecoder) Recovered() int { return int(d.recovered.Load()) }

// Received returns the number of distinct symbols accepted.
func (d *ShardedDecoder) Received() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.received
}

// Redundant returns the number of symbols that contributed nothing new.
func (d *ShardedDecoder) Redundant() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.redundant
}

// Overhead returns received/n − 1, the §5.4.1 decoding-overhead metric.
func (d *ShardedDecoder) Overhead() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return float64(d.received)/float64(d.code.n) - 1
}

// Blocks returns the recovered source blocks (nil entries are still
// unknown). Call Drain (or Close) first; the slice must not be mutated.
func (d *ShardedDecoder) Blocks() [][]byte { return d.blocks }

// ---- shard worker ----

func (s *decodeShard) run() {
	defer s.d.wg.Done()
	var batch []shardMsg
	for {
		var ok bool
		batch, ok = s.box.drain(batch)
		if !ok {
			return
		}
		for i := range batch {
			s.process(batch[i])
		}
		s.d.finishMany(len(batch))
	}
}

// process runs one reduction step of a symbol at this shard and decides
// its fate: redundant, recovery, local park, forward, or coordinator.
func (s *decodeShard) process(m shardMsg) {
	d := s.d
	m.visited |= 1 << uint(s.id)

	// XOR out the owned blocks this shard has recovered. Only the owner
	// ever reads or writes blocks[b], so no lock is needed.
	u := m.unknown[:0]
	for _, b := range m.unknown {
		if d.owner(b) == s.id && d.blocks[b] != nil {
			xorblock.XorInto(m.data, d.blocks[b])
		} else {
			u = append(u, b)
		}
	}
	m.unknown = u

	switch {
	case len(u) == 0:
		// Fully reduced: nothing new. Cascade continuations (buffered)
		// were already counted when they first arrived.
		if !m.buffered {
			d.mu.Lock()
			d.redundant++
			d.mu.Unlock()
		}
		d.putInts(m.unknown)
		d.returnBuf(m.data)

	case len(u) == 1:
		// Degree one: the payload IS the missing block's value. Recover
		// here if owned, else hand it to the owner (regardless of the
		// visited mask — recovery terminates the hop chain).
		b := u[0]
		if d.owner(b) == s.id {
			d.putInts(m.unknown)
			s.recover(b, m.data)
		} else {
			d.send(d.owner(b), m)
		}

	default:
		local := true
		for _, b := range u {
			if d.owner(b) != s.id {
				local = false
				break
			}
		}
		if local {
			s.park(m)
			return
		}
		for _, b := range u {
			if t := d.owner(b); m.visited&(1<<uint(t)) == 0 {
				d.send(t, m)
				return
			}
		}
		// Every involved shard has reduced it; wait at the coordinator
		// for one of its blocks to recover.
		d.sendCoord(coordMsg{announce: -1, sym: m})
	}
}

// park buffers a symbol whose remaining unknowns are all owned by this
// shard, indexed on each of them (the single-core Decoder's scheme).
func (s *decodeShard) park(m shardMsg) {
	ps := &pendingSymbol{data: m.data, unknown: m.unknown}
	at := len(s.parked)
	s.parked = append(s.parked, ps)
	for _, b := range m.unknown {
		s.pending[b] = append(s.pending[b], at)
	}
}

// recover records a newly known owned block and runs the substitution
// cascade through this shard's parked symbols, announcing every recovery
// to the coordinator so cross-shard waiters wake up.
func (s *decodeShard) recover(block int, data []byte) {
	d := s.d
	queue := append(s.queue[:0], peelRec{block, data})
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if d.blocks[r.idx] != nil {
			d.returnBuf(r.data) // another cascade path got here first
			continue
		}
		d.blocks[r.idx] = r.data
		d.recovered.Add(1)
		d.sendCoord(coordMsg{announce: r.idx})
		waiters := s.pending[r.idx]
		delete(s.pending, r.idx)
		for _, w := range waiters {
			ps := s.parked[w]
			if ps.dead || !ps.drop(r.idx) {
				continue
			}
			xorblock.XorInto(ps.data, r.data)
			switch len(ps.unknown) {
			case 1:
				ps.dead = true
				next := ps.unknown[0]
				d.putInts(ps.unknown)
				queue = append(queue, peelRec{next, ps.data})
			case 0:
				ps.dead = true
				d.putInts(ps.unknown)
				d.returnBuf(ps.data)
			}
		}
	}
	s.queue = queue[:0] // retain capacity for the next cascade
}

// ---- coordinator ----

func (c *coordinator) run() {
	defer c.d.wg.Done()
	var batch []coordMsg
	for {
		var ok bool
		batch, ok = c.box.drain(batch)
		if !ok {
			return
		}
		for i := range batch {
			c.process(batch[i])
		}
		c.d.finishMany(len(batch))
	}
}

func (c *coordinator) process(m coordMsg) {
	d := c.d
	if m.announce >= 0 {
		c.known.Set(m.announce)
		waiters := c.waiting[m.announce]
		delete(c.waiting, m.announce)
		for _, w := range waiters {
			cs := c.parked[w]
			if cs.dead {
				continue
			}
			cs.dead = true
			// Re-dispatch to the recovering shard: it owns the block's
			// bytes and will XOR them out, then continue the hop chain
			// with a fresh visited mask.
			cs.sym.visited = 0
			cs.sym.buffered = true
			d.send(d.owner(m.announce), cs.sym)
		}
		return
	}
	// Park request. A block may have been announced while this symbol was
	// hopping between shards — the announcement is already consumed, so
	// check the coordinator's recovered set before parking to avoid a
	// missed wake-up (and a stalled decode).
	sym := m.sym
	for _, b := range sym.unknown {
		if c.known.Test(b) {
			sym.visited = 0
			sym.buffered = true
			d.send(d.owner(b), sym)
			return
		}
	}
	at := len(c.parked)
	c.parked = append(c.parked, &crossSym{sym: sym})
	for _, b := range sym.unknown {
		c.waiting[b] = append(c.waiting[b], at)
	}
}
