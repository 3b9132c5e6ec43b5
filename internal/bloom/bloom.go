// Package bloom implements the Bloom filters of §5.2: the fine-grained
// working-set summaries a receiver hands to a partial sender so that the
// sender only transmits symbols the receiver is missing.
//
// A filter over set S uses m bits and k hash functions; membership tests
// have no false negatives, and a false positive only makes the sender
// skip a symbol that would have been useful — it never causes a useless
// transmission, the asymmetry §5.2 leans on. The false positive rate is
//
//	f = (1 − e^{−kn/m})^k
//
// The paper's two operating points are 4 bits/element with 3 hashes
// (f ≈ 14.7%) and 8 bits/element with 5 hashes (f ≈ 2.2%); both are
// reproduced by tests and the E10 bench.
//
// Hash evaluations use the Kirsch–Mitzenmacher double-hashing scheme from
// internal/hashing: two 64-bit hashes simulate all k probes.
//
// The package also provides the scoped variant sketched at the end of
// §5.2 for very large working sets: a filter that summarizes only the
// elements ≡ β (mod ρ), so summaries can be pipelined incrementally
// ("peer A can create a Bloom filter only for elements of S that are
// equal to β modulo ρ").
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"icd/internal/bitset"
	"icd/internal/hashing"
	"icd/internal/keyset"
)

// Filter is a Bloom filter over uint64 symbol keys. Construct with New or
// FromSet. Not safe for concurrent mutation.
type Filter struct {
	Seed   uint64 // hash family seed; peers must share it to interoperate
	K      int    // number of hash functions
	bits   *bitset.Set
	ninact int // number of inserted elements (for analytics)
}

// New creates a filter with m bits and k hash functions.
func New(seed uint64, m, k int) *Filter {
	if m <= 0 {
		panic("bloom: non-positive bit count")
	}
	if k <= 0 {
		panic("bloom: non-positive hash count")
	}
	return &Filter{Seed: seed, K: k, bits: bitset.New(m)}
}

// NewWithBitsPerElement sizes a filter for n elements at b bits per
// element, using the accompanying hash count (e.g. the paper's 4/3 and
// 8/5 operating points). If k <= 0 the theoretically optimal
// k = round(b·ln 2) is used.
func NewWithBitsPerElement(seed uint64, n int, bitsPerElement float64, k int) *Filter {
	if n <= 0 || bitsPerElement <= 0 {
		panic("bloom: invalid sizing")
	}
	m := int(math.Ceil(bitsPerElement * float64(n)))
	if k <= 0 {
		k = int(math.Round(bitsPerElement * math.Ln2))
		if k < 1 {
			k = 1
		}
	}
	return New(seed, m, k)
}

// FromSet builds a filter summarizing every key in s.
func FromSet(seed uint64, s *keyset.Set, bitsPerElement float64, k int) *Filter {
	n := s.Len()
	if n == 0 {
		n = 1
	}
	f := NewWithBitsPerElement(seed, n, bitsPerElement, k)
	s.Each(f.Add)
	return f
}

// M returns the filter width in bits.
func (f *Filter) M() int { return f.bits.Len() }

// N returns the number of elements inserted.
func (f *Filter) N() int { return f.ninact }

// Add inserts key. O(k); incremental by nature, as §3 requires of the
// searchable summaries. Probes step h += H2 and reduce with Lemire's
// multiply-shift instead of a per-probe `% m` division — the probe
// sequence equals Pair.Probe(i, m) for i = 0..K−1.
func (f *Filter) Add(key uint64) {
	pr := hashing.HashPair(f.Seed, key)
	m := uint64(f.bits.Len())
	h := pr.H1
	for i := 0; i < f.K; i++ {
		f.bits.Set(int(hashing.Reduce(h, m)))
		h += pr.H2
	}
	f.ninact++
}

// Contains reports whether key may be in the summarized set. False
// positives occur with probability ≈ FalsePositiveRate; false negatives
// never occur.
func (f *Filter) Contains(key uint64) bool {
	pr := hashing.HashPair(f.Seed, key)
	m := uint64(f.bits.Len())
	h := pr.H1
	for i := 0; i < f.K; i++ {
		if !f.bits.Test(int(hashing.Reduce(h, m))) {
			return false
		}
		h += pr.H2
	}
	return true
}

// Missing returns the elements of local that the filter reports as absent
// from the summarized set — the candidate transmissions S_local − S_summary.
// By the no-false-negative property the result is a subset of the true
// difference.
func (f *Filter) Missing(local *keyset.Set) []uint64 {
	var out []uint64
	local.Each(func(k uint64) {
		if !f.Contains(k) {
			out = append(out, k)
		}
	})
	return out
}

// FalsePositiveRate predicts f = (1 − e^{−kn/m})^k for the current fill.
func (f *Filter) FalsePositiveRate() float64 {
	return PredictFalsePositiveRate(f.ninact, f.bits.Len(), f.K)
}

// PredictFalsePositiveRate evaluates the §5.2 formula for n elements in m
// bits under k hashes.
func PredictFalsePositiveRate(n, m, k int) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// OptimalHashes returns the k minimizing the false positive rate at b
// bits per element: k = b·ln 2, rounded.
func OptimalHashes(bitsPerElement float64) int {
	k := int(math.Round(bitsPerElement * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// FillRatio returns the fraction of set bits (diagnostic).
func (f *Filter) FillRatio() float64 { return f.bits.FillRatio() }

// Union merges another filter built with identical parameters into f, so
// a summary can be maintained over multiple working-set shards.
func (f *Filter) Union(other *Filter) error {
	if other == nil || f.Seed != other.Seed || f.K != other.K || f.M() != other.M() {
		return errors.New("bloom: union of incompatible filters")
	}
	if err := f.bits.Union(other.bits); err != nil {
		return err
	}
	f.ninact += other.ninact
	return nil
}

// MarshalBinary encodes the filter in one buffer. Wire format: seed (8) |
// k (4) | n (8) | bitset blob.
func (f *Filter) MarshalBinary() ([]byte, error) { return f.AppendBinary(nil) }

// AppendBinary implements encoding.BinaryAppender: it appends the
// MarshalBinary encoding to b, growing b at most once, so a caller that
// frames the filter behind a header of its own builds one buffer, and
// none when b has BinaryLen bytes to spare.
func (f *Filter) AppendBinary(b []byte) ([]byte, error) {
	if n := f.BinaryLen(); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = binary.LittleEndian.AppendUint64(b, f.Seed)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.K))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.ninact))
	return f.bits.AppendBinary(b)
}

// BinaryLen is the length of the filter's MarshalBinary encoding.
func (f *Filter) BinaryLen() int { return 20 + 8 + 8*((f.M()+63)/64) }

// UnmarshalBinary decodes data produced by MarshalBinary. It decodes in
// place, into the filter's bitset when it has one (bitset.Set.
// UnmarshalBinary), so a receiver decoding one summary after another
// into one filter allocates only when a summary outgrows every earlier one.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < 20 {
		return errors.New("bloom: short buffer")
	}
	k := binary.LittleEndian.Uint32(data[8:])
	if k == 0 || k > 64 {
		return fmt.Errorf("bloom: implausible hash count %d", k)
	}
	f.Seed = binary.LittleEndian.Uint64(data[0:])
	f.K = int(k)
	f.ninact = int(binary.LittleEndian.Uint64(data[12:]))
	if f.bits == nil {
		f.bits = new(bitset.Set)
	}
	if err := f.bits.UnmarshalBinary(data[20:]); err != nil {
		return err
	}
	if f.bits.Len() == 0 {
		return errors.New("bloom: zero-width filter")
	}
	return nil
}

// Scoped is the §5.2 scaling device: a Bloom filter covering only the
// keys ≡ Beta (mod Rho) of a very large working set. A sender uses it to
// locate differences within that residue class; further classes can be
// summarized and shipped incrementally ("pipelined ... for differing
// values of β as needed").
type Scoped struct {
	Beta, Rho uint64
	Filter    *Filter
}

// NewScoped creates a scoped filter for the residue class beta mod rho,
// sized for the expected class population n/rho of an n-element set.
func NewScoped(seed uint64, n int, bitsPerElement float64, k int, beta, rho uint64) *Scoped {
	if rho == 0 {
		panic("bloom: zero modulus")
	}
	if beta >= rho {
		panic("bloom: beta out of range")
	}
	classN := n / int(rho)
	if classN < 1 {
		classN = 1
	}
	return &Scoped{Beta: beta, Rho: rho, Filter: NewWithBitsPerElement(seed, classN, bitsPerElement, k)}
}

// Add inserts key if it belongs to the residue class, reporting whether it
// was in scope.
func (s *Scoped) Add(key uint64) bool {
	if key%s.Rho != s.Beta {
		return false
	}
	s.Filter.Add(key)
	return true
}

// InScope reports whether key belongs to the summarized residue class.
func (s *Scoped) InScope(key uint64) bool { return key%s.Rho == s.Beta }

// Contains reports membership for in-scope keys; out-of-scope keys return
// false along with ok=false, meaning this summary cannot speak for them.
func (s *Scoped) Contains(key uint64) (member, ok bool) {
	if !s.InScope(key) {
		return false, false
	}
	return s.Filter.Contains(key), true
}

// Missing returns in-scope elements of local that the scoped summary
// reports absent.
func (s *Scoped) Missing(local *keyset.Set) []uint64 {
	var out []uint64
	local.Each(func(k uint64) {
		if member, ok := s.Contains(k); ok && !member {
			out = append(out, k)
		}
	})
	return out
}
