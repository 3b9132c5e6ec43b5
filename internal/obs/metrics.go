package obs

// metrics.go holds the three metric primitives. All mutation methods
// are nil-safe and allocation-free: hot paths cache a handle once and
// hammer it with plain atomic operations afterwards.

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value and nil
// are both ready to use; a Counter obtained from a Registry is shared
// by every caller naming the same metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (nil-safe; negative n is a caller bug
// but is not policed on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level that may move both ways. The zero
// value and nil are both ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add shifts the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end. Buckets are fixed at construction, so
// Observe is a bounded linear scan plus three atomic updates — no
// allocation, no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a standalone histogram with the given ascending
// upper bounds (they are copied and sorted; empty bounds yield a
// single +Inf bucket). Registry.Histogram is the registered path.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value (nil-safe, zero-alloc).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric renders the histogram as one Snapshot entry with cumulative
// bucket counts.
func (h *Histogram) metric(name string) Metric {
	m := Metric{
		Name:    name,
		Kind:    KindHistogram,
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		m.Buckets[i] = Bucket{Le: le, Count: cum}
	}
	return m
}

// DurationBuckets are the default upper bounds, in milliseconds, for
// latency-shaped histograms (shaped-link delay, tick durations).
var DurationBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// SecondsBuckets are upper bounds, in seconds, for the latencies the
// system records of itself (session handshake, first symbol): 100 µs to
// 30 s, the default operation timeout.
var SecondsBuckets = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// CountBuckets are power-of-two upper bounds for size-shaped
// histograms (queue depths, window sizes).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
