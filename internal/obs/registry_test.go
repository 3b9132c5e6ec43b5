package obs

import (
	"sort"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("peer.symbols{kind=useful}")
	c2 := r.Counter("peer.symbols{kind=useful}")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(3)
	if got := c2.Value(); got != 3 {
		t.Fatalf("shared counter: got %d, want 3", got)
	}
	if r.Gauge("node.level") == nil || r.Histogram("node.h", CountBuckets) == nil {
		t.Fatal("gauge/histogram constructors returned nil")
	}
}

func TestRegistryKindCollision(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.y")
	g := r.Gauge("x.y") // wrong kind for a taken name: standalone fallback
	if g == nil {
		t.Fatal("kind collision must return a functional metric")
	}
	g.Set(7)
	c.Add(1)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindCounter || snap[0].Value != 1 {
		t.Fatalf("registry must keep the first registration: %+v", snap)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a.b")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter must still count")
	}
	r.Gauge("a.g").Set(5)
	r.Histogram("a.h", nil).Observe(1)
	r.GaugeFunc("a.f", func() int64 { return 1 })
	r.Trace("x", "y", "z")
	if r.Snapshot() != nil || r.Tracer() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Gauge("a.first").Set(2)
	r.Histogram("m.mid", []float64{1, 2}).Observe(1.5)
	r.GaugeFunc("k.fn", func() int64 { return 9 })
	snap := r.Snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["k.fn"].Value != 9 {
		t.Fatalf("callback gauge not evaluated: %+v", byName["k.fn"])
	}
	h := byName["m.mid"]
	if h.Count != 1 || h.Sum != 1.5 || len(h.Buckets) != 3 {
		t.Fatalf("histogram snapshot: %+v", h)
	}
	// 1.5 lands in the (1, 2] bucket; cumulative counts are 0, 1, 1.
	if h.Buckets[0].Count != 0 || h.Buckets[1].Count != 1 || h.Buckets[2].Count != 1 {
		t.Fatalf("cumulative buckets wrong: %+v", h.Buckets)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 1}) // unsorted on purpose
	for _, v := range []float64{0.5, 1, 5, 10, 100} {
		h.Observe(v)
	}
	m := h.metric("t")
	// bounds sorted to [1, 10]: ≤1 holds {0.5, 1}, ≤10 adds {5, 10}, +Inf adds {100}.
	want := []uint64{2, 4, 5}
	for i, b := range m.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d: got %d, want %d (%+v)", i, b.Count, want[i], m.Buckets)
		}
	}
	if m.Sum != 116.5 || m.Count != 5 {
		t.Fatalf("sum/count: %v/%d", m.Sum, m.Count)
	}
}

func TestConcurrentMetricWrites(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c.shared")
			h := r.Histogram("h.shared", CountBuckets)
			g := r.Gauge("g.shared")
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i % 64))
				g.Add(1)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c.shared").Value(); got != workers*each {
		t.Fatalf("counter: got %d, want %d", got, workers*each)
	}
	if got := r.Histogram("h.shared", nil).Count(); got != workers*each {
		t.Fatalf("histogram count: got %d, want %d", got, workers*each)
	}
}

// TestHotPathAllocs pins the instrumented hot paths at zero
// allocations.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist{kind=pin}", DurationBuckets)
	lat := r.Histogram("hot.latency_seconds", SecondsBuckets)
	tr := r.Tracer()
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.5) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { lat.Observe(0.103) }); n != 0 {
		t.Fatalf("Histogram.Observe over SecondsBuckets allocates %v/op", n)
	}
	if again := r.Histogram("hot.latency_seconds", SecondsBuckets); again != lat {
		t.Fatal("a second registration of a latency histogram returned a second histogram")
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Trace(EvStall, "p1", "") }); n > 0 {
		t.Fatalf("Tracer.Trace allocates %v/op", n)
	}
}
