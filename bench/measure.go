package main

// measure.go runs a measured pass over a set-up workload — a closed loop
// of rounds on each client slot, bracketed by process-wide CPU, allocator
// and transport counters — and derives every metric that pass can give.

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"icd/internal/node"
	"icd/internal/obs"
)

// roundFn runs round seq on client slot `slot`.
type roundFn func(slot, seq int, tr *tracer) roundResult

// passOpts says how long a pass runs and what it records.
type passOpts struct {
	seconds float64 // > 0: each client loop starts rounds until this much time has passed
	rounds  int     // otherwise: this many rounds per client loop
	warmup  bool    // one discarded round first (first rounds measure 40–50% slow)
	tr      *tracer // non-nil: record spans and sample gauges
	wire    func() wireCounts
	live    func() []*node.Node // client nodes mid-fetch, for the gauge sampler
}

// pass is what one measured pass observed.
type pass struct {
	rounds     []roundResult
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	wire       wireCounts
	gauges     map[string]float64 // sampled means and peaks (traced pass only)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass measures one pass. Clients loops run in parallel; each is a
// closed loop.
func runPass(w *workload, round roundFn, o passOpts) *pass {
	if o.warmup {
		round(0, -1, nil)
	}
	runtime.GC()

	p := &pass{}
	var stopSampler func() map[string]float64
	if o.tr != nil {
		stopSampler = startSampler(o.live)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var w0 wireCounts
	if o.wire != nil {
		w0 = o.wire()
	}
	cpu0, start := cpuTime(), time.Now()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for slot := 0; slot < w.Clients; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				if o.seconds > 0 {
					if time.Since(start).Seconds() >= o.seconds {
						return
					}
				} else if seq >= o.rounds {
					return
				}
				r := round(slot, seq, o.tr)
				mu.Lock()
				p.rounds = append(p.rounds, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	if o.wire != nil {
		p.wire = o.wire().sub(w0)
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if stopSampler != nil {
		p.gauges = stopSampler()
	}
	return p
}

// sampledGauges are the registry levels the traced pass samples from
// every client node mid-fetch, and the per-layer metric each mean feeds.
var sampledGauges = map[string]string{
	"peermux.window_inflight": "peermux.window_inflight_mean",
	"node.slots_allocated":    "node.slots_allocated_mean",
	"node.window_allocated":   "node.window_allocated_mean",
}

// startSampler samples gauges and the heap every 10 ms until the
// returned stop function is called, which reports means and the peak.
func startSampler(live func() []*node.Node) (stop func() map[string]float64) {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	sums := make(map[string]float64)
	var samples int
	var peak uint64
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			metrics.Read(heap)
			if inuse := heap[0].Value.Uint64() + heap[1].Value.Uint64(); inuse > peak {
				peak = inuse
			}
			if live == nil {
				continue
			}
			for _, n := range live() {
				for _, m := range n.Obs().Snapshot() {
					if out, ok := sampledGauges[m.Name]; ok {
						sums[out] += float64(m.Value)
					}
				}
				samples++
			}
		}
	}()
	return func() map[string]float64 {
		close(done)
		<-exited
		out := map[string]float64{"runtime.heap_inuse_peak_MB": float64(peak) / 1e6}
		for name, sum := range sums {
			out[name] = sum / float64(samples)
		}
		return out
	}
}

// metricSet is a pass's derived metrics with the sample count behind
// each (rounds, fetches or symbols, as the metric's definition says).
type metricSet struct {
	Values  map[string]float64 `json:"values"`
	Samples map[string]int     `json:"samples"`
}

func (m *metricSet) put(name string, v float64, samples int) {
	m.Values[name] = v
	m.Samples[name] = samples
}

// derive computes every metric this pass supports.
func (p *pass) derive(w *workload) metricSet {
	m := metricSet{Values: make(map[string]float64), Samples: make(map[string]int)}

	var (
		goodputs, durs, handshakes, overheads, minSenders, spreads []float64
		attempted, failed                                          int
		bytesOK                                                    int64
		received, useful                                           float64
		refreshes, redials, stalls, evicted                        int
		summaries                                                  = make(map[string]int)
		opened                                                     int64
		queue                                                      []obs.Bucket
	)
	for _, r := range p.rounds {
		bytesOK += r.bytes
		if r.bytes > 0 && r.wall > 0 {
			goodputs = append(goodputs, float64(r.bytes)/r.wall.Seconds()/1e6)
		}
		lo, hi := math.Inf(1), 0.0
		for _, f := range r.fetches {
			attempted++
			if !f.ok {
				failed++
				continue
			}
			if r.swarm != nil {
				continue // the lab reports its own percentiles and series
			}
			d := f.dur.Seconds()
			durs = append(durs, d)
			lo, hi = math.Min(lo, d), math.Max(hi, d)
			handshakes = append(handshakes, f.handshake.Seconds())
			overheads = append(overheads, f.decodeOverhead)
			minSenders = append(minSenders, f.minSender)
			received += float64(f.received)
			useful += float64(f.useful)
			refreshes += f.refreshes
			redials += f.redials
			stalls += f.stalls
			evicted += f.evicted
			for method, n := range f.summaries {
				summaries[method] += n
			}
		}
		if hi > 0 && r.swarm == nil {
			spreads = append(spreads, hi/lo)
		}
		for _, rm := range r.reg {
			switch rm.Name {
			case "peermux.channels{event=opened}":
				opened += rm.Value
			case "peermux.queue_depth":
				queue = mergeBuckets(queue, rm.Buckets)
			}
		}
	}
	fetches := attempted - failed
	perFetch := func(v float64) float64 { return v / float64(max(fetches, 1)) }

	if w.Swarm != nil {
		received, useful = p.deriveSwarm(&m)
	} else {
		m.put("fetch.s_p50", percentile(durs, 0.50), len(durs))
		m.put("fetch.s_p90", percentile(durs, 0.90), len(durs))
		m.put("fetch.decode_overhead", percentile(overheads, 0.50), len(overheads))
		m.put("peer.handshake_s_p50", percentile(handshakes, 0.50), len(handshakes))
		m.put("peer.refreshes_per_fetch", perFetch(float64(refreshes)), fetches)
		m.put("peer.duplicates_per_fetch", perFetch(received-useful), fetches)
		m.put("peer.useful_ratio_min_sender", mean(minSenders), len(minSenders))
		m.put("peer.summary_bloom_sessions", float64(summaries["bloom"]), fetches)
		m.put("peer.summary_sketch_sessions", float64(summaries["sketch"]), fetches)
		m.put("peer.summary_art_sessions", float64(summaries["art"]), fetches)
		m.put("peer.redials_per_fetch", perFetch(float64(redials)), fetches)
		m.put("peer.stalls_per_fetch", perFetch(float64(stalls)), fetches)
		m.put("peer.sessions_evicted_per_fetch", perFetch(float64(evicted)), fetches)
		m.put("peermux.queue_depth_p50", bucketQuantile(queue, 0.50), bucketCount(queue))
		m.put("peermux.queue_depth_p99", bucketQuantile(queue, 0.99), bucketCount(queue))
		m.put("peermux.channels_opened_per_fetch", perFetch(float64(opened)), fetches)
		m.put("node.finish_spread", percentile(spreads, 0.50), len(spreads))

		total := float64(p.wire.Down + p.wire.Up)
		m.put("wire.expansion", total/float64(max(bytesOK, 1)), fetches)
		m.put("wire.down_bytes_per_fetch", perFetch(float64(p.wire.Down)), fetches)
		m.put("wire.up_bytes_per_fetch", perFetch(float64(p.wire.Up)), fetches)
		m.put("wire.control_share", float64(p.wire.Up)/math.Max(total, 1), fetches)
		m.put("wire.writes_per_symbol", float64(p.wire.Writes)/math.Max(received, 1), int(received))
		m.put("wire.bytes_per_write", total/math.Max(float64(p.wire.Writes), 1), int(p.wire.Writes))
		m.put("wire.dials_per_fetch", perFetch(float64(p.wire.Dials)), fetches)
	}
	m.put("goodput_MBps", percentile(goodputs, 0.50), len(goodputs))
	m.put("useful_ratio", useful/math.Max(received, 1), int(received))
	gb := float64(bytesOK) / 1e9
	m.put("runtime.cpu_s_per_GB", p.cpu.Seconds()/gb, len(p.rounds))
	m.put("allocs_per_symbol", float64(p.mallocs)/math.Max(received, 1), int(received))
	m.put("fetch.fail_ratio", float64(failed)/float64(max(attempted, 1)), attempted)

	m.put("runtime.cpu_cores_busy", p.cpu.Seconds()/p.wall.Seconds(), len(p.rounds))
	m.put("runtime.gc_cycles_per_fetch", perFetch(float64(p.gcCycles)), fetches)
	m.put("runtime.gc_pause_ms_per_fetch", perFetch(float64(p.gcPause.Microseconds())/1e3), fetches)
	m.put("runtime.alloc_bytes_per_content_byte", float64(p.allocBytes)/float64(max(bytesOK, 1)), fetches)
	m.put("waterfall.e2e_cpu_ns_per_symbol", float64(p.cpu.Nanoseconds())/math.Max(received, 1), int(received))
	for name, v := range p.gauges {
		m.put(name, v, len(p.rounds))
	}
	return m
}

// deriveSwarm folds the lab runs' Results: the medians the lab already
// computes per run, and the integral of its swarm time-series. It returns
// the symbols received and useful across all runs.
func (p *pass) deriveSwarm(m *metricSet) (received, useful float64) {
	var p50s, p90s, conv, offload, spread, elapsed, conns, window []float64
	var failed int
	for _, r := range p.rounds {
		res := r.swarm
		if res == nil {
			continue
		}
		failed += res.Failed
		if res.Completed == 0 {
			continue
		}
		p50s = append(p50s, res.P50.Seconds())
		p90s = append(p90s, res.P95.Seconds())
		conv = append(conv, res.Convergence.Seconds())
		offload = append(offload, res.Offload)
		spread = append(spread, res.Spread)
		elapsed = append(elapsed, res.Elapsed.Seconds())
		var prev time.Duration
		var connSec, winSec float64
		for _, s := range res.Series {
			dt := (s.Offset - prev).Seconds()
			prev = s.Offset
			useful += s.UsefulPerSec * dt
			received += (s.UsefulPerSec + s.DuplicatePerSec) * dt
			connSec += float64(s.LiveConns) * dt
			winSec += float64(s.WindowInFlight) * dt
		}
		if prev > 0 {
			conns = append(conns, connSec/prev.Seconds())
			window = append(window, winSec/prev.Seconds())
		}
	}
	n := len(p50s)
	m.put("fetch.s_p50", percentile(p50s, 0.50), n)
	m.put("fetch.s_p90", percentile(p90s, 0.50), n)
	m.put("scenario.converge_s", percentile(conv, 0.50), n)
	m.put("scenario.origin_offload", percentile(offload, 0.50), n)
	m.put("scenario.fairness_spread", percentile(spread, 0.50), n)
	m.put("scenario.run_elapsed_s", percentile(elapsed, 0.50), n)
	m.put("scenario.live_conns_mean", mean(conns), n)
	m.put("scenario.window_inflight_mean", mean(window), n)
	m.put("scenario.useful_share", useful/math.Max(received, 1), int(received))
	m.put("scenario.failed_fetchers", float64(failed), len(p.rounds))
	return received, useful
}

// percentile is the nearest-rank percentile; NaN on no samples, so a
// pass that measured nothing cannot pass the output gate.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// mergeBuckets adds one histogram's cumulative buckets into an
// accumulator with the same bounds.
func mergeBuckets(acc, b []obs.Bucket) []obs.Bucket {
	if acc == nil {
		return append([]obs.Bucket(nil), b...)
	}
	for i := range acc {
		acc[i].Count += b[i].Count
	}
	return acc
}

func bucketCount(b []obs.Bucket) int {
	if len(b) == 0 {
		return 0
	}
	return int(b[len(b)-1].Count)
}

// bucketQuantile reads a quantile off cumulative buckets as the upper
// bound of the bucket it falls in (the last finite bound for +Inf).
func bucketQuantile(b []obs.Bucket, q float64) float64 {
	total := bucketCount(b)
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	for i, bk := range b {
		if bk.Count >= want {
			if math.IsInf(bk.Le, 1) && i > 0 {
				return b[i-1].Le
			}
			return bk.Le
		}
	}
	return b[len(b)-1].Le
}
