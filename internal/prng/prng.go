// Package prng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256++) used by every stochastic component in the
// library: symbol sampling, degree draws, scenario construction, loss
// injection. Centralizing randomness behind explicit seeds makes each
// experiment exactly reproducible, which the benchmark harness relies on.
//
// The generator is NOT cryptographically secure; it is a simulation PRNG.
package prng

import "math/bits"

// Rand is a xoshiro256++ generator. The zero value is invalid; construct
// with New. Rand is not safe for concurrent use; give each goroutine its
// own generator (Split derives independent streams).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, per the
// xoshiro authors' recommendation.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes the generator in place from seed, exactly as New
// would. Hot paths that derive a fresh deterministic stream per symbol
// (e.g. fountain neighbor expansion) reseed a stack-allocated Rand
// instead of calling New, which keeps them allocation-free.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (probability ~2^-256, but cheap to rule out).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Split derives a new independent generator from the current stream.
func (r *Rand) Split() *Rand { return New(r.Uint64() ^ 0x6a09e667f3bcc909) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleUint64s permutes p in place (Fisher–Yates).
func (r *Rand) ShuffleUint64s(p []uint64) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleInts returns k distinct values drawn uniformly from [0, n)
// without replacement. It panics if k > n or k < 0.
func (r *Rand) SampleInts(n, k int) []int {
	return r.SampleIntsInto(n, k, nil)
}

// SampleIntsInto is SampleInts writing into buf's storage (buf is
// re-sliced from 0 and grown only if its capacity is insufficient).
// Passing the previous call's result back in makes repeated sampling
// allocation-free in steady state; the consumed random stream and the
// returned values are identical to SampleInts.
//
// For small k relative to n it uses Floyd's algorithm (O(k) draws);
// otherwise it Fisher–Yates shuffles a dense range in buf. Floyd
// duplicate detection is a linear scan while k is small (the common
// hot-path regime: recoding degrees are capped at 50 and soliton
// degrees are overwhelmingly small) and switches to an open-addressing
// table above that, keeping large uncapped degrees O(k) instead of
// O(k²). The table lives in buf's spare capacity, which the first large
// k grows once, so it allocates nothing either.
func (r *Rand) SampleIntsInto(n, k int, buf []int) []int {
	if k < 0 || k > n {
		panic("prng: SampleInts k out of range")
	}
	out := buf[:0]
	if k == 0 {
		return out
	}
	if k*4 >= n {
		// Dense case: materialize [0, n), shuffle, keep the prefix. The
		// draws match Perm exactly.
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		r.ShuffleInts(out)
		return out[:k]
	}
	// Both dedup structures see the same candidate stream, so the draws
	// and results are identical regardless of which is used.
	const scanLimit = 64
	var table []int // v+1 per chosen v, 0 = empty; a power of two ≥ 2k slots
	if k > scanLimit {
		size := 1 << bits.Len(uint(2*k-1))
		if cap(out) < k+size {
			out = make([]int, 0, k+size)
		}
		table = out[k : k+size]
		clear(table)
	}
	for j := n - k; j < n; j++ {
		v := r.Intn(j + 1)
		if table != nil {
			if !insert(table, v) {
				v = j
				insert(table, v)
			}
		} else {
			for _, c := range out {
				if c == v {
					v = j
					break
				}
			}
		}
		out = append(out, v)
	}
	return out
}

// insert adds v to an open-addressing table of SampleIntsInto (linear
// probing from a Fibonacci hash), reporting false if it was already there.
func insert(table []int, v int) bool {
	mask := uint64(len(table) - 1)
	for h := uint64(v) * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(mask); ; h = (h + 1) & mask {
		switch table[h] {
		case 0:
			table[h] = v + 1
			return true
		case v + 1:
			return false
		}
	}
}
