package bloom

import (
	"math"
	"testing"
	"testing/quick"

	"icd/internal/keyset"
	"icd/internal/prng"
)

func TestNoFalseNegatives(t *testing.T) {
	rng := prng.New(1)
	s := keyset.Random(rng, 5000)
	f := FromSet(7, s, 8, 5)
	s.Each(func(k uint64) {
		if !f.Contains(k) {
			t.Fatalf("false negative for %d", k)
		}
	})
}

// E10: the paper's §5.2 operating points.
func TestPaperFalsePositiveRates(t *testing.T) {
	// Analytic check first.
	if got := PredictFalsePositiveRate(1000, 4000, 3); math.Abs(got-0.147) > 0.002 {
		t.Fatalf("4 bits/elem, 3 hashes: analytic fp = %.4f, paper says 0.147", got)
	}
	if got := PredictFalsePositiveRate(1000, 8000, 5); math.Abs(got-0.022) > 0.001 {
		t.Fatalf("8 bits/elem, 5 hashes: analytic fp = %.4f, paper says 0.022", got)
	}

	// Empirical check.
	rng := prng.New(2)
	const n = 10000
	s := keyset.Random(rng, n)
	for _, tc := range []struct {
		bits float64
		k    int
		want float64
		tol  float64
	}{
		{4, 3, 0.147, 0.02},
		{8, 5, 0.022, 0.006},
	} {
		f := FromSet(3, s, tc.bits, tc.k)
		fp := 0
		const probes = 50000
		for i := 0; i < probes; i++ {
			k := rng.Uint64()
			if s.Contains(k) {
				continue
			}
			if f.Contains(k) {
				fp++
			}
		}
		got := float64(fp) / probes
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%v bits/elem, %d hashes: empirical fp %.4f, want ≈%.3f",
				tc.bits, tc.k, got, tc.want)
		}
		if math.Abs(f.FalsePositiveRate()-tc.want) > tc.tol {
			t.Errorf("FalsePositiveRate() = %.4f, want ≈%.3f", f.FalsePositiveRate(), tc.want)
		}
	}
}

// §5.2: "using four bits per element, we can create filters for 10,000
// packets using just 40,000 bits, which can fit into five 1 KB packets."
func TestPaperSizeClaim(t *testing.T) {
	rng := prng.New(3)
	s := keyset.Random(rng, 10000)
	f := FromSet(1, s, 4, 3)
	if f.M() != 40000 {
		t.Fatalf("M = %d, want 40000", f.M())
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 5*1024+64 {
		t.Fatalf("serialized filter %d bytes, want ≲5KB", len(data))
	}
}

func TestMissingIsSubsetOfTrueDifference(t *testing.T) {
	rng := prng.New(4)
	a := keyset.Random(rng, 3000) // summarized set
	b := a.Clone()                // local set = a plus extras
	for b.Len() < 3600 {
		b.Add(rng.Uint64())
	}
	f := FromSet(9, a, 8, 5)
	missing := f.Missing(b)
	trueDiff := b.Diff(a)
	for _, k := range missing {
		if !trueDiff.Contains(k) {
			t.Fatalf("Missing reported %d which is in the summarized set", k)
		}
	}
	// With fp ≈ 2.2% we should still find the vast majority of the 600.
	if len(missing) < 500 {
		t.Fatalf("found only %d of 600 differences", len(missing))
	}
}

func TestUnion(t *testing.T) {
	rng := prng.New(5)
	s1 := keyset.Random(rng, 500)
	s2 := keyset.Random(rng, 500)
	f1 := New(11, 8000, 5)
	f2 := New(11, 8000, 5)
	s1.Each(f1.Add)
	s2.Each(f2.Add)
	if err := f1.Union(f2); err != nil {
		t.Fatal(err)
	}
	s1.Each(func(k uint64) {
		if !f1.Contains(k) {
			t.Fatalf("union lost %d from s1", k)
		}
	})
	s2.Each(func(k uint64) {
		if !f1.Contains(k) {
			t.Fatalf("union lost %d from s2", k)
		}
	})
	if f1.N() != 1000 {
		t.Fatalf("N = %d", f1.N())
	}
}

func TestUnionIncompatible(t *testing.T) {
	a := New(1, 100, 3)
	for _, b := range []*Filter{nil, New(2, 100, 3), New(1, 200, 3), New(1, 100, 4)} {
		if err := a.Union(b); err == nil {
			t.Fatal("incompatible union accepted")
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := prng.New(6)
	s := keyset.Random(rng, 1000)
	f := FromSet(13, s, 8, 5)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Seed != f.Seed || g.K != f.K || g.M() != f.M() || g.N() != f.N() {
		t.Fatal("header mismatch")
	}
	s.Each(func(k uint64) {
		if !g.Contains(k) {
			t.Fatalf("round-tripped filter lost %d", k)
		}
	})
}

func TestUnmarshalGarbage(t *testing.T) {
	var f Filter
	for i, data := range [][]byte{nil, {1}, make([]byte, 20), make([]byte, 28)} {
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { New(1, 0, 3) },
		func() { New(1, 100, 0) },
		func() { NewWithBitsPerElement(1, 0, 8, 5) },
		func() { NewWithBitsPerElement(1, 10, 0, 5) },
	}
	for i, fn := range cases {
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

func TestOptimalHashes(t *testing.T) {
	if got := OptimalHashes(8); got != 6 { // 8 ln2 ≈ 5.55 → 6
		t.Fatalf("OptimalHashes(8) = %d", got)
	}
	if got := OptimalHashes(0.1); got != 1 {
		t.Fatalf("OptimalHashes(0.1) = %d", got)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := New(1, 100, 3)
	if f.FalsePositiveRate() != 0 {
		t.Fatal("empty filter fp != 0")
	}
	if f.Contains(42) {
		t.Fatal("empty filter contains something")
	}
}

// Property: no false negatives, ever.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64, seed uint64) bool {
		fl := New(seed, 512, 4)
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Missing never reports summarized elements.
func TestQuickMissingSound(t *testing.T) {
	f := func(sumKeys, localKeys []uint16) bool {
		sum := keyset.New(len(sumKeys))
		for _, k := range sumKeys {
			sum.Add(uint64(k))
		}
		local := keyset.New(len(localKeys))
		for _, k := range localKeys {
			local.Add(uint64(k))
		}
		fl := FromSet(21, sum, 8, 5)
		for _, k := range fl.Missing(local) {
			if sum.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScopedFilter(t *testing.T) {
	rng := prng.New(7)
	s := keyset.Random(rng, 8000)
	const rho = 8
	sc := NewScoped(31, s.Len(), 8, 5, 3, rho)
	added := 0
	s.Each(func(k uint64) {
		if sc.Add(k) {
			added++
		}
	})
	if added == 0 {
		t.Fatal("nothing in scope")
	}
	want := s.Len() / rho
	if added < want/2 || added > want*2 {
		t.Fatalf("in-scope count %d, want ≈%d", added, want)
	}
	// No false negatives for in-scope members.
	s.Each(func(k uint64) {
		if !sc.InScope(k) {
			return
		}
		member, ok := sc.Contains(k)
		if !ok || !member {
			t.Fatalf("scoped false negative for %d", k)
		}
	})
	// Out-of-scope keys are answered with ok=false.
	if _, ok := sc.Contains(4 + rho); ok {
		t.Fatal("out-of-scope key answered")
	}
	// Missing only reports in-scope keys.
	local := s.Clone()
	for local.Len() < 9000 {
		local.Add(rng.Uint64())
	}
	for _, k := range sc.Missing(local) {
		if !sc.InScope(k) {
			t.Fatalf("Missing reported out-of-scope key %d", k)
		}
		if s.Contains(k) {
			t.Fatalf("Missing reported summarized key %d", k)
		}
	}
}

func TestScopedPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewScoped(1, 10, 8, 5, 0, 0) },
		func() { NewScoped(1, 10, 8, 5, 9, 8) },
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

func BenchmarkAdd(b *testing.B) {
	f := New(1, 8*23968, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	rng := prng.New(1)
	s := keyset.Random(rng, 23968)
	f := FromSet(1, s, 8, 5)
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Contains(uint64(i))
	}
	_ = sink
}

// BenchmarkBloomFalsePositives reports the measured false-positive rate at
// the paper's two operating points (E10) via custom metrics.
func BenchmarkBloomFalsePositives(b *testing.B) {
	rng := prng.New(9)
	s := keyset.Random(rng, 10000)
	for _, tc := range []struct {
		name string
		bits float64
		k    int
	}{
		{"4bits3hashes", 4, 3},
		{"8bits5hashes", 8, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			f := FromSet(1, s, tc.bits, tc.k)
			fp, probes := 0, 0
			for i := 0; i < b.N; i++ {
				k := rng.Uint64()
				if s.Contains(k) {
					continue
				}
				probes++
				if f.Contains(k) {
					fp++
				}
			}
			if probes > 0 {
				b.ReportMetric(float64(fp)/float64(probes), "fp-rate")
			}
		})
	}
}

// TestUnmarshalInPlace: one Filter decodes a larger filter, a smaller one
// and a larger one again, each time with exact membership — every key of
// the current filter's set, and on the test keys exactly the current
// filter's answers, none of an earlier one's — and a same-size decode
// allocates nothing.
func TestUnmarshalInPlace(t *testing.T) {
	rng := prng.New(8)
	probe := keyset.Random(rng, 4000)
	var got Filter
	for i, n := range []int{2000, 100, 2000, 3000} {
		s := keyset.Random(rng, n)
		want := FromSet(0, s, 8, 5)
		data, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.M() != want.M() || got.N() != want.N() || got.K != want.K {
			t.Fatalf("decode %d: header m=%d n=%d k=%d, want %d %d %d", i, got.M(), got.N(), got.K, want.M(), want.N(), want.K)
		}
		s.Each(func(k uint64) {
			if !got.Contains(k) {
				t.Fatalf("decode %d lost %d", i, k)
			}
		})
		probe.Each(func(k uint64) {
			if got.Contains(k) != want.Contains(k) {
				t.Fatalf("decode %d answers %d otherwise than the filter it decoded", i, k)
			}
		})
		again, _ := want.MarshalBinary()
		if allocs := testing.AllocsPerRun(20, func() {
			if err := got.UnmarshalBinary(again); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("decode %d: a same-size decode allocated %.1f times", i, allocs)
		}
	}
	// A reused filter still refuses garbage.
	for i, data := range [][]byte{nil, {1}, make([]byte, 20), make([]byte, 28)} {
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted into a reused filter", i)
		}
	}
}

// TestMarshalOneBuffer: MarshalBinary allocates its one buffer, the
// bitset's words appended into it.
func TestMarshalOneBuffer(t *testing.T) {
	f := NewWithBitsPerElement(0, 4608, 8, 5)
	for k := uint64(0); k < 2048; k++ {
		f.Add(k)
	}
	if allocs := testing.AllocsPerRun(20, func() { f.MarshalBinary() }); allocs != 1 {
		t.Errorf("MarshalBinary allocates %.1f times, want 1", allocs)
	}
}

// TestAppendBinary: AppendBinary appends MarshalBinary's bytes, BinaryLen
// of them, behind what the buffer holds — into its spare room without
// allocating, and growing a short buffer once.
func TestAppendBinary(t *testing.T) {
	f := NewWithBitsPerElement(0, 4608, 8, 5)
	for k := uint64(0); k < 2048; k++ {
		f.Add(k)
	}
	want, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != f.BinaryLen() {
		t.Fatalf("MarshalBinary wrote %d bytes, BinaryLen says %d", len(want), f.BinaryLen())
	}
	buf := append(make([]byte, 0, 4+f.BinaryLen()), "head"...)
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = f.AppendBinary(buf[:4]) }); allocs != 0 {
		t.Errorf("AppendBinary into a buffer with the room allocates %.1f times", allocs)
	}
	if string(buf[:4]) != "head" || string(buf[4:]) != string(want) {
		t.Fatal("AppendBinary did not append MarshalBinary's bytes behind the prefix")
	}
	if allocs := testing.AllocsPerRun(20, func() { f.AppendBinary([]byte("head")) }); allocs != 1 {
		t.Errorf("AppendBinary into a short buffer allocates %.1f times, want 1", allocs)
	}
}
