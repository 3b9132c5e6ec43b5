package main

// replay.go is the layer replay of a traced run: each layer's exported
// API driven alone, single-threaded where the layer is, over the
// workload's own geometry (k, block size, working-set overlap), one span
// per layer. Every number here is a cost the end-to-end pass also paid,
// so the replayed per-symbol costs can be summed into the waterfall and
// set against the CPU the end-to-end pass actually burned per symbol.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"icd/internal/bloom"
	"icd/internal/fountain"
	"icd/internal/keyset"
	"icd/internal/minwise"
	"icd/internal/node"
	"icd/internal/peer"
	"icd/internal/peermux"
	"icd/internal/prng"
	"icd/internal/protocol"
	"icd/internal/recode"
	"icd/internal/recon"
	"icd/internal/xorblock"
)

// cost is what one replayed layer spent.
type cost struct {
	wall, cpu time.Duration
	mallocs   uint64
}

func (c cost) wallNs(ops int) float64 { return float64(c.wall.Nanoseconds()) / float64(ops) }
func (c cost) cpuNs(ops int) float64  { return float64(c.cpu.Nanoseconds()) / float64(ops) }
func (c cost) allocs(ops int) float64 { return float64(c.mallocs) / float64(ops) }

// replayer carries the replay's inputs and sinks.
type replayer struct {
	w    *workload
	seed uint64
	tr   *tracer
	out  *workloadResult
}

// ops is a replay operation count: n at full size, a fiftieth at toy size.
func (r *replayer) ops(n int) int {
	if r.w.small {
		return max(n/50, 4)
	}
	return n
}

// timed runs fn under the span replay.<name> and returns its cost.
func (r *replayer) timed(name string, fn func()) cost {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	fn()
	end := time.Now()
	c := cost{wall: end.Sub(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	c.mallocs = ms1.Mallocs - ms0.Mallocs
	r.tr.leaf(0, 0, "replay."+name, start, end, nil)
	return c
}

// sink keeps results the compiler could otherwise prove unused.
var sink int

// replayLayers measures every layer at w's geometry and adds the layer
// metrics, node.overhead_share and the waterfall to wr. fe is the set-up
// fetch workload (nil for collab_swarm), reused for the bare-session row.
func replayLayers(w *workload, fe *fetchEnv, seed uint64, tr *tracer, wr *workloadResult) error {
	r := &replayer{w: w, seed: seed, tr: tr, out: wr}
	c := genContent(w.K, w.BlockSize, seed)
	// One pool of distinct encoded symbols feeds every layer: the decode
	// stream, the recoding domain and the summaries' key sets. 1.5k of
	// them decode at the shipped sizes; a toy k needs relatively more.
	var ids []uint64
	var payloads map[uint64][]byte
	for n := w.K + w.K/2; ; n *= 2 {
		var err error
		if ids, payloads, err = encodedPool(c, n, seed^0x9001); err != nil {
			return err
		}
		ok, err := decodes(c, ids, payloads)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if n > 16*w.K {
			return fmt.Errorf("replay: %d symbols do not decode k=%d", n, w.K)
		}
	}
	r.xor()
	encodeCPU, err := r.fountainEncode(c)
	if err != nil {
		return err
	}
	decodeCPU, err := r.fountainDecode(c, ids, payloads)
	if err != nil {
		return err
	}
	if err := r.recode(ids, payloads); err != nil {
		return err
	}
	if err := r.summaries(ids); err != nil {
		return err
	}
	if err := r.protocol(); err != nil {
		return err
	}
	muxCPU, err := r.peermux()
	if err != nil {
		return err
	}
	r.store()
	if fe != nil {
		if err := r.bareSession(fe); err != nil {
			return err
		}
	}

	// The waterfall: what encode, the mux (whose frame cost contains the
	// protocol write and read of that frame) and the default-path decode
	// cost per symbol when driven alone, against what a symbol cost the
	// whole process end to end.
	accounted := encodeCPU + muxCPU + decodeCPU
	e2e := wr.Values["waterfall.e2e_cpu_ns_per_symbol"]
	wr.put("waterfall.accounted_cpu_ns_per_symbol", accounted, wr.Samples["waterfall.e2e_cpu_ns_per_symbol"])
	wr.put("waterfall.unaccounted_share", 1-accounted/e2e, wr.Samples["waterfall.e2e_cpu_ns_per_symbol"])
	return nil
}

func (r *replayer) xor() {
	ops := r.ops(400_000)
	dst, src := make([]byte, r.w.BlockSize), make([]byte, r.w.BlockSize)
	c := r.timed("xorblock", func() {
		for i := 0; i < ops; i++ {
			sink += xorblock.XorInto(dst, src)
		}
	})
	r.out.put("xorblock.xor_GBps", float64(ops)*float64(r.w.BlockSize)/c.wall.Seconds()/1e9, ops)
}

// decodes reports whether the plain decoder finishes on the pool.
func decodes(c content, ids []uint64, payloads map[uint64][]byte) (bool, error) {
	code, err := fountain.NewCode(c.info.NumBlocks, nil, c.info.CodeSeed)
	if err != nil {
		return false, err
	}
	dec, err := fountain.NewDecoder(code, c.info.BlockSize)
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if _, err := dec.AddSymbol(fountain.Symbol{ID: id, Data: payloads[id]}); err != nil {
			return false, err
		}
		if dec.Done() {
			return true, nil
		}
	}
	return false, nil
}

// fountainEncode returns the encoder's CPU ns per symbol.
func (r *replayer) fountainEncode(c content) (float64, error) {
	ops := r.ops(40_000)
	enc, err := newEncoder(c, r.seed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 256; i++ { // fill the freelist
		enc.Release(enc.Next())
	}
	cst := r.timed("fountain.encode", func() {
		for i := 0; i < ops; i++ {
			enc.Release(enc.Next())
		}
	})
	r.out.put("fountain.encode_ns_per_symbol", cst.wallNs(ops), ops)
	return cst.cpuNs(ops), nil
}

// fountainDecode decodes the pool's stream with the plain decoder and
// with the sharded one at GOMAXPROCS shards (what FetchOptions'
// DecodeShards 0 selects); it returns the sharded decoder's CPU ns per
// symbol, the cost the end-to-end path pays.
func (r *replayer) fountainDecode(c content, ids []uint64, payloads map[uint64][]byte) (float64, error) {
	repeats := r.ops(8)
	code, err := fountain.NewCode(c.info.NumBlocks, nil, c.info.CodeSeed)
	if err != nil {
		return 0, err
	}
	stream := make([]fountain.Symbol, len(ids))
	for i, id := range ids {
		stream[i] = fountain.Symbol{ID: id, Data: payloads[id]}
	}
	var fed int
	var failure error
	plain := r.timed("fountain.decode", func() {
		for i := 0; i < repeats; i++ {
			dec, err := fountain.NewDecoder(code, c.info.BlockSize)
			if err != nil {
				failure = err
				return
			}
			for _, sym := range stream {
				if dec.Done() {
					break
				}
				if _, err := dec.AddSymbol(sym); err != nil {
					failure = err
					return
				}
				fed++
			}
			if !dec.Done() {
				failure = fmt.Errorf("replay: plain decoder did not finish on %d symbols", len(stream))
				return
			}
		}
	})
	if failure != nil {
		return 0, failure
	}
	r.out.put("fountain.decode_ns_per_symbol", plain.wallNs(fed), fed)
	r.out.put("fountain.decode_allocs_per_symbol", plain.allocs(fed), fed)

	fed = 0
	sharded := r.timed("fountain.decode_sharded", func() {
		for i := 0; i < repeats; i++ {
			dec, err := fountain.NewShardedDecoder(code, c.info.BlockSize, runtime.GOMAXPROCS(0))
			if err != nil {
				failure = err
				return
			}
			done, err := dec.AddStream(stream)
			fed += dec.Received() + dec.Redundant()
			dec.Close()
			if err != nil || !done {
				failure = fmt.Errorf("replay: sharded decoder did not finish (done=%v): %v", done, err)
				return
			}
		}
	})
	if failure != nil {
		return 0, failure
	}
	r.out.put("fountain.decode_sharded_ns_per_symbol", sharded.wallNs(fed), fed)
	return sharded.cpuNs(fed), nil
}

// recode replays a partial sender recoding over its working set (Next)
// and a receiver that already knows half of that set peeling the recoded
// symbols (Add) — partial_swarm's overlap.
func (r *replayer) recode(ids []uint64, payloads map[uint64][]byte) error {
	nextOps, addOps := r.ops(20_000), r.ops(8_000)
	domain := keyset.FromKeys(ids[:r.w.K])
	rec, err := recode.NewRecoder(prng.New(r.seed), domain, recode.Options{Payloads: payloads})
	if err != nil {
		return err
	}
	for i := 0; i < 256; i++ {
		rec.Release(rec.Next(recode.Oblivious, 0))
	}
	next := r.timed("recode.next", func() {
		for i := 0; i < nextOps; i++ {
			rec.Release(rec.Next(recode.Oblivious, 0))
		}
	})
	r.out.put("recode.next_ns_per_symbol", next.wallNs(nextOps), nextOps)
	r.out.put("recode.next_allocs_per_symbol", next.allocs(nextOps), nextOps)

	syms := make([]recode.Symbol, addOps)
	for i := range syms {
		s := rec.Next(recode.Oblivious, 0)
		syms[i] = recode.Symbol{IDs: append([]uint64(nil), s.IDs...), Data: append([]byte(nil), s.Data...)}
		rec.Release(s)
	}
	dec := recode.NewDecoder(true)
	for _, id := range ids[:r.w.K/2] {
		dec.AddKnown(id, append([]byte(nil), payloads[id]...))
	}
	var failure error
	add := r.timed("recode.add", func() {
		for _, s := range syms {
			if _, err := dec.Add(s); err != nil {
				failure = err
				return
			}
		}
	})
	if failure != nil {
		return failure
	}
	r.out.put("recode.add_ns_per_symbol", add.wallNs(addOps), addOps)
	return nil
}

// summaries builds each of the three working-set summaries over k keys
// with the wire's parameters (Bloom 8 bits × 5 hashes, the default
// sketch size, ART 8 bits split 5 leaf + 3 internal) and probes a Bloom
// summary with a half-overlapping set, as a partial sender does.
func (r *replayer) summaries(ids []uint64) error {
	repeats := r.ops(20)
	k := r.w.K
	held := keyset.FromKeys(ids[:k])
	local := keyset.FromKeys(ids[k/2 : k+k/2])
	keys := repeats * k

	var filter *bloom.Filter
	c := r.timed("summary.bloom_build", func() {
		for i := 0; i < repeats; i++ {
			filter = bloom.FromSet(r.seed, held, 8, 5)
		}
	})
	r.out.put("summary.bloom_build_ns_per_key", c.wallNs(keys), keys)
	blob, err := filter.MarshalBinary()
	if err != nil {
		return err
	}
	r.out.put("summary.bloom_bytes_per_key", float64(len(blob))/float64(k), k)

	c = r.timed("summary.bloom_missing", func() {
		for i := 0; i < repeats; i++ {
			sink += len(filter.Missing(local))
		}
	})
	r.out.put("summary.bloom_missing_ns_per_key", c.wallNs(keys), keys)

	var sketch *minwise.Sketch
	c = r.timed("summary.sketch_build", func() {
		for i := 0; i < repeats; i++ {
			sketch = minwise.Build(r.seed, minwise.DefaultSize, held)
		}
	})
	r.out.put("summary.sketch_build_ns_per_key", c.wallNs(keys), keys)
	if blob, err = sketch.MarshalBinary(); err != nil {
		return err
	}
	r.out.put("summary.sketch_bytes", float64(len(blob)), 1)

	var sum *recon.Summary
	c = r.timed("summary.art_build", func() {
		for i := 0; i < repeats; i++ {
			sum, err = recon.Build(recon.DefaultParams, held).Summarize(recon.SummaryOptions{
				TotalBitsPerElement: 8, LeafBitsPerElement: 5,
			})
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	r.out.put("summary.art_build_ns_per_key", c.wallNs(keys), keys)
	if blob, err = sum.MarshalBinary(); err != nil {
		return err
	}
	r.out.put("summary.art_bytes_per_key", float64(len(blob))/float64(k), k)
	return nil
}

// protocol frames block-size symbols into memory and reads them back:
// the framing+CRC cost with no transport under it.
func (r *replayer) protocol() error {
	const frames = 2_000
	passes := r.ops(50)
	payload := make([]byte, r.w.BlockSize)
	var buf bytes.Buffer
	var failure error
	write := r.timed("protocol.write", func() {
		for p := 0; p < passes; p++ {
			buf.Reset()
			for i := 0; i < frames; i++ {
				if err := protocol.WriteSymbol(&buf, uint64(i), payload); err != nil {
					failure = err
					return
				}
			}
		}
	})
	if failure != nil {
		return failure
	}
	ops := frames * passes
	r.out.put("protocol.write_symbol_ns", write.wallNs(ops), ops)
	r.out.put("protocol.header_bytes_per_frame", float64(buf.Len())/frames-float64(r.w.BlockSize), frames)

	wire := buf.Bytes()
	read := r.timed("protocol.read", func() {
		for p := 0; p < passes; p++ {
			fr := protocol.NewFrameReader(bytes.NewReader(wire))
			for i := 0; i < frames; i++ {
				f, err := fr.Next()
				if err != nil {
					failure = err
					return
				}
				_, data, err := protocol.SymbolView(f)
				if err != nil {
					failure = err
					return
				}
				sink += len(data)
			}
		}
	})
	if failure != nil {
		return failure
	}
	r.out.put("protocol.read_symbol_ns", read.wallNs(ops), ops)
	r.out.put("protocol.read_allocs_per_frame", read.allocs(ops), ops)
	return nil
}

// muxBatch is the request size the mux replay pulls symbols in: the
// fetch engine's default batch.
const muxBatch = 64

// peermux saturates one wire pair over a synchronous pipe with 1 and
// with 16 channels, each pulling block-size symbol frames in batches
// under the default credit window, and times opening a channel. It
// returns the 1-channel CPU ns per frame (both ends of the wire).
func (r *replayer) peermux() (float64, error) {
	frames := r.ops(64_000) / 16 * 16
	payload := make([]byte, r.w.BlockSize)

	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveMuxSymbols(server, payload)
	}()
	wire, err := peermux.Dial(client, peermux.Config{})
	if err != nil {
		client.Close()
		<-served
		return 0, err
	}
	defer func() {
		wire.Close()
		<-served
	}()

	pull := func(channels int) (cost, error) {
		var wg sync.WaitGroup
		errs := make([]error, channels)
		c := r.timed(fmt.Sprintf("peermux.%dch", channels), func() {
			for ch := 0; ch < channels; ch++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[ch] = pullFrames(wire, uint64(ch), frames/channels, len(payload))
				}()
			}
			wg.Wait()
		})
		for _, err := range errs {
			if err != nil {
				return c, err
			}
		}
		return c, nil
	}
	one, err := pull(1)
	if err != nil {
		return 0, err
	}
	r.out.put("peermux.frame_ns_1ch", one.wallNs(frames), frames)
	r.out.put("peermux.allocs_per_frame", one.allocs(frames), frames)
	sixteen, err := pull(16)
	if err != nil {
		return 0, err
	}
	r.out.put("peermux.frame_ns_16ch", sixteen.wallNs(frames), frames)

	opens := r.ops(200)
	var failure error
	open := r.timed("peermux.open_channel", func() {
		for i := 0; i < opens; i++ {
			ch, err := wire.Open(protocol.Hello{ContentID: uint64(i), SummaryMask: protocol.AllSummaryMask}, 5*time.Second)
			if err != nil {
				failure = err
				return
			}
			ch.Close()
		}
	})
	if failure != nil {
		return 0, failure
	}
	r.out.put("peermux.open_channel_us", open.wallNs(opens)/1e3, opens)
	return one.cpuNs(frames), nil
}

// serveMuxSymbols is the accepting half of the mux replay: it answers
// every REQUEST n on every channel with n symbol frames and a DONE.
func serveMuxSymbols(conn net.Conn, payload []byte) {
	fr := protocol.NewFrameReader(conn)
	f, err := fr.Next()
	if err != nil {
		conn.Close()
		return
	}
	hello, err := protocol.DecodeMuxHello(f)
	if err != nil {
		conn.Close()
		return
	}
	wire, err := peermux.Accept(conn, fr, hello, peermux.Config{}, func(ch *peermux.Channel) {
		err := ch.Accept(protocol.Hello{
			ContentID: ch.RemoteHello().ContentID, FullCopy: true,
			NumBlocks: 1, BlockSize: uint32(len(payload)),
		})
		if err != nil {
			return
		}
		var next uint64
		for {
			f, err := ch.Next()
			if err != nil || f.Type != protocol.TypeRequest {
				return
			}
			n, err := protocol.DecodeRequest(f)
			if err != nil {
				return
			}
			for i := uint32(0); i < n; i++ {
				if protocol.WriteSymbol(ch, next, payload) != nil {
					return
				}
				next++
			}
			if protocol.WriteFrame(ch, protocol.EncodeDone()) != nil {
				return
			}
		}
	})
	if err != nil {
		return
	}
	wire.Serve() // until the dialing side closes the wire
}

// pullFrames opens a channel and pulls n symbol frames of `size` payload
// bytes through it.
func pullFrames(wire *peermux.Wire, contentID uint64, n, size int) error {
	ch, err := wire.Open(protocol.Hello{ContentID: contentID, SummaryMask: protocol.AllSummaryMask}, 5*time.Second)
	if err != nil {
		return err
	}
	defer ch.Close()
	for got := 0; got < n; {
		if err := protocol.WriteFrame(ch, protocol.EncodeRequest(muxBatch)); err != nil {
			return err
		}
		for {
			f, err := ch.Next()
			if err != nil {
				return err
			}
			if f.Type == protocol.TypeDone {
				break
			}
			_, data, err := protocol.SymbolView(f)
			if err != nil {
				return err
			}
			if len(data) != size {
				return fmt.Errorf("replay: mux frame carries %d payload bytes, want %d", len(data), size)
			}
			got++
		}
	}
	return nil
}

func (r *replayer) store() {
	ops := r.ops(200_000)
	s := node.NewStore(0)
	c := r.timed("node.store_put", func() {
		for i := 0; i < ops; i++ {
			s.Put(uint64(i%64), int64(r.w.BlockSize), false, false)
		}
	})
	r.out.put("node.store_put_ns", c.wallNs(ops), ops)
}

// bareSession fetches the workload's contents with a bare peer.Fetch
// over a peermux.Fabric against the providers' replicas behind plain
// ServerMuxes — the same closed loops, instances and network as the
// end-to-end pass with no node around either end. What the node adds on
// top (store, scheduler, gossip directory, serve-while-fetch) is
// node.overhead_share.
func (r *replayer) bareSession(e *fetchEnv) error {
	netw := newNetwork(e.w, r.seed)
	var muxes []*peer.ServerMux
	var serving sync.WaitGroup
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
		serving.Wait()
	}()
	for _, addr := range e.addrs {
		mux := peer.NewServerMux()
		muxes = append(muxes, mux)
		for _, rep := range e.holdings[addr] {
			var srv *peer.Server
			var err error
			if rep.symbols != nil {
				srv, err = peer.NewPartialServer(rep.c.info, rep.symbols)
			} else {
				srv, err = peer.NewFullServer(rep.c.info, rep.c.data)
			}
			if err != nil {
				return err
			}
			if err := mux.Register(srv); err != nil {
				return err
			}
		}
		ln, err := netw.Listen(addr)
		if err != nil {
			return err
		}
		serving.Add(1)
		go func() {
			defer serving.Done()
			mux.Serve(ln) // returns when the mux closes
		}()
	}

	round := func(slot, seq int, _ *tracer) roundResult {
		inst := e.variant(slot, seq)
		tr := netw.Node(fmt.Sprintf("client-%d", slot))
		fabric := peermux.NewFabric(tr.Dial, peermux.Config{})
		defer fabric.Close()
		res := roundResult{fetches: make([]fetchOutcome, len(inst.contents))}
		var wg sync.WaitGroup
		start := time.Now()
		for i, c := range inst.contents {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				fr, err := peer.Fetch(e.addrs, c.info.ID, peer.FetchOptions{
					Dial: tr.Dial, Fabric: fabric, Initial: inst.initial,
				})
				f := &res.fetches[i]
				f.ok = err == nil && fr.Completed && bytes.Equal(fr.Data, c.data)
				f.dur = time.Since(t0)
				if fr != nil {
					f.addPeers(fr)
				}
			}()
		}
		wg.Wait()
		res.wall = time.Since(start)
		return res
	}
	var p *pass
	r.timed("peer.session", func() { p = runPass(e.w, round, passOpts{rounds: r.ops(5)}) })

	var durs, perSymbol []float64
	for _, rr := range p.rounds {
		symbols := 0
		for _, f := range rr.fetches {
			if !f.ok {
				return fmt.Errorf("replay: a bare fetch failed")
			}
			durs = append(durs, f.dur.Seconds())
			symbols += f.received
		}
		perSymbol = append(perSymbol, float64(rr.wall.Nanoseconds())/float64(symbols))
	}
	r.out.put("peer.session_ns_per_symbol", percentile(perSymbol, 0.50), len(perSymbol))
	nodeFetch := r.out.Values["fetch.s_p50"]
	r.out.put("node.overhead_share", (nodeFetch-percentile(durs, 0.50))/nodeFetch, len(durs))
	return nil
}
