// Package bitset provides a fixed-size bit vector used as the backing
// store for Bloom filters and other compact summaries.
//
// The zero value of Set is an empty, zero-length bit vector. Use New to
// allocate a vector of a given width. Set is not safe for concurrent
// mutation; concurrent readers are safe once writes have completed.
package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-size bit vector.
type Set struct {
	n     int // number of valid bits
	words []uint64
}

// New returns a Set holding n bits, all zero.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is 1.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// FillRatio returns the fraction of bits that are set, in [0,1].
// It returns 0 for an empty vector.
func (s *Set) FillRatio() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Count()) / float64(s.n)
}

// Reset clears every bit, retaining capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Union ORs other into s. Both sets must have the same length.
func (s *Set) Union(other *Set) error {
	if other == nil || s.n != other.n {
		return errors.New("bitset: union of mismatched lengths")
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
	return nil
}

// Intersect ANDs other into s. Both sets must have the same length.
func (s *Set) Intersect(other *Set) error {
	if other == nil || s.n != other.n {
		return errors.New("bitset: intersect of mismatched lengths")
	}
	for i, w := range other.words {
		s.words[i] &= w
	}
	return nil
}

// Equal reports whether the two sets have identical length and contents.
func (s *Set) Equal(other *Set) bool {
	if other == nil || s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// MarshalBinary encodes the set as an 8-byte little-endian length header
// followed by the packed words.
func (s *Set) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 8+8*len(s.words)))
}

// AppendBinary implements encoding.BinaryAppender: it appends the
// MarshalBinary encoding to b, so a caller framing the set behind a header
// of its own builds one buffer, not two.
func (s *Set) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(s.n))
	for _, w := range s.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary. It decodes in
// place: the set's words are reused when they have the capacity, and every
// one of them is overwritten, so nothing of an earlier value survives.
func (s *Set) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return errors.New("bitset: short buffer")
	}
	n := binary.LittleEndian.Uint64(data)
	const maxBits = 1 << 40 // 128 GiB of bits; guards corrupt headers
	if n > maxBits {
		return fmt.Errorf("bitset: implausible bit count %d", n)
	}
	nw := (int(n) + wordBits - 1) / wordBits
	if len(data) != 8+8*nw {
		return fmt.Errorf("bitset: want %d payload bytes, have %d", 8*nw, len(data)-8)
	}
	s.n = int(n)
	if cap(s.words) >= nw {
		s.words = s.words[:nw]
	} else {
		s.words = make([]uint64, nw)
	}
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	// Reject garbage in the tail beyond bit n: keeps Equal and Count exact.
	if rem := s.n % wordBits; rem != 0 && nw > 0 {
		if s.words[nw-1]&^(1<<uint(rem)-1) != 0 {
			return errors.New("bitset: nonzero bits beyond declared length")
		}
	}
	return nil
}

// String renders small sets as a 0/1 string for debugging; large sets are
// summarized.
func (s *Set) String() string {
	if s.n <= 128 {
		b := make([]byte, s.n)
		for i := 0; i < s.n; i++ {
			if s.Test(i) {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	return fmt.Sprintf("bitset{n=%d, ones=%d}", s.n, s.Count())
}
