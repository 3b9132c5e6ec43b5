package prng

import (
	"math"
	"slices"
	"testing"
)

func TestDeterministic(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	b := a.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split streams matched %d/1000 draws", matches)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := New(99)
	const n = 10
	const trials = 200000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d = %d, want ≈%.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(13)
	const n = 5
	const trials = 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("first element %d count %d, want ≈%.0f", i, c, want)
		}
	}
}

func TestSampleIntsDistinctAndInRange(t *testing.T) {
	r := New(21)
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 3}, {1000, 999},
	} {
		s := r.SampleInts(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("SampleInts(%d,%d) len %d", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("SampleInts(%d,%d) invalid: %v", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsPanics(t *testing.T) {
	r := New(3)
	for _, tc := range []struct{ n, k int }{{5, 6}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleInts(%d,%d) did not panic", tc.n, tc.k)
				}
			}()
			r.SampleInts(tc.n, tc.k)
		}()
	}
}

func TestSampleIntsCoverage(t *testing.T) {
	// Every element should be sampled eventually (both code paths).
	r := New(31)
	for _, k := range []int{2, 40} { // Floyd path and shuffle path for n=50
		seen := map[int]bool{}
		for trial := 0; trial < 2000; trial++ {
			for _, v := range r.SampleInts(50, k) {
				seen[v] = true
			}
		}
		if len(seen) != 50 {
			t.Fatalf("k=%d: only %d/50 values ever sampled", k, len(seen))
		}
	}
}

func TestShuffleUint64s(t *testing.T) {
	r := New(41)
	orig := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	p := append([]uint64(nil), orig...)
	r.ShuffleUint64s(p)
	// Same multiset.
	count := map[uint64]int{}
	for _, v := range p {
		count[v]++
	}
	for _, v := range orig {
		if count[v] != 1 {
			t.Fatalf("shuffle changed contents: %v", p)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(23968)
	}
	_ = sink
}

func BenchmarkSampleIntsFloyd(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.SampleInts(500000, 11)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		a := New(seed)
		var b Rand
		b.Reseed(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d: Reseed stream diverges from New", seed)
			}
		}
	}
}

func TestSampleIntsIntoMatchesSampleInts(t *testing.T) {
	// Same draws, same values, across both the sparse (Floyd) and dense
	// (shuffle) regimes — and the returned buffer must be reusable.
	var buf []int
	for seed := uint64(0); seed < 50; seed++ {
		for _, nk := range [][2]int{{100, 3}, {100, 24}, {100, 99}, {7, 7}, {50, 0}} {
			n, k := nk[0], nk[1]
			want := New(seed).SampleInts(n, k)
			r := New(seed)
			buf = r.SampleIntsInto(n, k, buf)
			if len(buf) != len(want) {
				t.Fatalf("n=%d k=%d: len %d != %d", n, k, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("n=%d k=%d: [%d] = %d != %d", n, k, i, buf[i], want[i])
				}
			}
		}
	}
}

// sampleIntsMap is SampleIntsInto as it was before its open-addressing
// table: Floyd's algorithm with a map for k > 64. The table must draw the
// same candidates and keep the same values.
func sampleIntsMap(r *Rand, n, k int) []int {
	var out []int
	if k == 0 {
		return out
	}
	if k*4 >= n {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		r.ShuffleInts(out)
		return out[:k]
	}
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// TestSampleIntsIntoMatchesMapReference: over thousands of (n, k, seed)
// triples — most of them sparse with k above the scan limit, plus both
// sides of the k*4 >= n dense boundary — SampleIntsInto returns exactly
// the map-based reference's values and leaves the generator where the
// reference does, while one buffer (and its stale table) is reused
// throughout.
func TestSampleIntsIntoMatchesMapReference(t *testing.T) {
	var buf []int
	triples := 0
	check := func(n, k int, seed uint64) {
		t.Helper()
		ref, got := New(seed), New(seed)
		want := sampleIntsMap(ref, n, k)
		buf = got.SampleIntsInto(n, k, buf)
		if !slices.Equal(buf, want) {
			t.Fatalf("n=%d k=%d seed=%d: %v, want %v", n, k, seed, buf, want)
		}
		if got.Uint64() != ref.Uint64() {
			t.Fatalf("n=%d k=%d seed=%d: the generator moved differently", n, k, seed)
		}
		triples++
	}
	meta := New(1)
	for seed := uint64(0); seed < 3000; seed++ {
		n := 1 + meta.Intn(20000)
		check(n, meta.Intn(min(n, 600)+1), seed)
	}
	for _, n := range []int{257, 258, 259, 260, 1000, 4096, 23968} {
		for _, k := range []int{64, 65, (n - 1) / 4, (n + 3) / 4, n / 2} {
			check(n, k, uint64(n*k))
		}
	}
	if triples < 3000 {
		t.Fatalf("checked %d triples", triples)
	}
}
