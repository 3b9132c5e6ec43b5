package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(0)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.FillRatio() != 0 {
		t.Fatalf("FillRatio = %v, want 0", s.FillRatio())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130) // spans three words
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != len(idx) {
		t.Fatalf("Count = %d, want %d", got, len(idx))
	}
	for _, i := range idx {
		s.Clear(i)
		if s.Test(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("Count after clears = %d, want 0", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Test(%d) did not panic", i)
				}
			}()
			s.Test(i)
		}()
	}
}

func TestUnionIntersect(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)

	u := a.Clone()
	if err := u.Union(b); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 50, 99} {
		if !u.Test(i) {
			t.Errorf("union missing bit %d", i)
		}
	}
	if u.Count() != 3 {
		t.Errorf("union Count = %d, want 3", u.Count())
	}

	in := a.Clone()
	if err := in.Intersect(b); err != nil {
		t.Fatal(err)
	}
	if !in.Test(50) || in.Count() != 1 {
		t.Errorf("intersect = %v, want only bit 50", in)
	}
}

func TestUnionMismatch(t *testing.T) {
	a := New(10)
	b := New(11)
	if err := a.Union(b); err == nil {
		t.Fatal("Union of mismatched lengths did not error")
	}
	if err := a.Intersect(b); err == nil {
		t.Fatal("Intersect of mismatched lengths did not error")
	}
	if err := a.Union(nil); err == nil {
		t.Fatal("Union with nil did not error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Test(6) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Test(5) {
		t.Fatal("clone lost original bit")
	}
}

func TestEqual(t *testing.T) {
	a := New(70)
	b := New(70)
	if !a.Equal(b) {
		t.Fatal("empty sets not equal")
	}
	a.Set(69)
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
	b.Set(69)
	if !a.Equal(b) {
		t.Fatal("same sets reported unequal")
	}
	if a.Equal(New(71)) {
		t.Fatal("different lengths reported equal")
	}
	if a.Equal(nil) {
		t.Fatal("nil reported equal")
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 7 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129, 1000} {
		s := New(n)
		for i := 0; i < n; i += 3 {
			s.Set(i)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var got Set
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(s) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},                                // short
		{10, 0, 0, 0, 0, 0, 0, 0},                // header says 10 bits, no payload
		{255, 255, 255, 255, 255, 255, 255, 255}, // implausible size
	}
	for i, data := range cases {
		var s Set
		if err := s.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Nonzero tail bits beyond declared length must be rejected.
	s := New(1)
	s.Set(0)
	data, _ := s.MarshalBinary()
	data[8] |= 0x02 // set bit 1, beyond length 1
	var got Set
	if err := got.UnmarshalBinary(data); err == nil {
		t.Error("tail garbage accepted")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	s := New(4)
	s.Set(1)
	if got := s.String(); got != "0100" {
		t.Fatalf("String = %q, want 0100", got)
	}
	big := New(200)
	big.Set(10)
	if got := big.String(); got != "bitset{n=200, ones=1}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: for any list of in-range indices, every set index tests true
// and Count equals the number of distinct indices.
func TestQuickSetCount(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 4096
		s := New(n)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r) % n
			s.Set(i)
			distinct[i] = true
		}
		if s.Count() != len(distinct) {
			return false
		}
		for i := range distinct {
			if !s.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: marshal/unmarshal is the identity.
func TestQuickMarshalIdentity(t *testing.T) {
	f := func(raw []uint16, size uint16) bool {
		n := int(size)%2000 + 1
		s := New(n)
		for _, r := range raw {
			s.Set(int(r) % n)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var got Set
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and intersect distributes as expected on
// membership.
func TestQuickUnionSemantics(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 1024
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Set(int(x) % n)
		}
		for _, y := range ys {
			b.Set(int(y) % n)
		}
		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		if !ab.Equal(ba) {
			return false
		}
		for i := 0; i < n; i++ {
			if ab.Test(i) != (a.Test(i) || b.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<20 - 1))
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

// TestUnmarshalInPlace: one Set decodes a larger blob, a smaller one and a
// larger one again, holding exactly each blob's bits every time — no word
// of an earlier value survives — and reuses its words when they have the
// room: the smaller and the second larger decode allocate nothing.
func TestUnmarshalInPlace(t *testing.T) {
	blob := func(n, step int) ([]byte, *Set) {
		s := New(n)
		for i := 0; i < n; i += step {
			s.Set(i)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data, s
	}
	var got Set
	for _, tc := range []struct{ n, step int }{{1000, 1}, {130, 7}, {1000, 3}, {1000, 5}} {
		data, want := blob(tc.n, tc.step)
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d step=%d: %v", tc.n, tc.step, err)
		}
		if !got.Equal(want) || got.Count() != want.Count() {
			t.Fatalf("n=%d step=%d: decoded %v, want %v", tc.n, tc.step, &got, want)
		}
	}
	small, _ := blob(130, 2)
	large, _ := blob(1000, 2)
	for _, data := range [][]byte{small, large} {
		if allocs := testing.AllocsPerRun(20, func() {
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("decoding %d bytes into a set that had room allocated %.1f times", len(data), allocs)
		}
	}
}

// TestUnmarshalInPlaceRejects: a Set that already holds words still
// rejects tail garbage and a length mismatch, and decodes the next good
// blob exactly.
func TestUnmarshalInPlaceRejects(t *testing.T) {
	full := New(1000)
	for i := 0; i < 1000; i++ {
		full.Set(i)
	}
	good, _ := full.MarshalBinary()
	var got Set
	if err := got.UnmarshalBinary(good); err != nil {
		t.Fatal(err)
	}
	tail := New(65)
	tail.Set(64)
	garbage, _ := tail.MarshalBinary()
	garbage[16] |= 0x02 // bit 65, beyond length 65
	if err := got.UnmarshalBinary(garbage); err == nil {
		t.Error("tail garbage accepted into a reused set")
	}
	if err := got.UnmarshalBinary(good[:len(good)-8]); err == nil {
		t.Error("a blob one word short accepted into a reused set")
	}
	if err := got.UnmarshalBinary(append(good[:len(good):len(good)], 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Error("a blob one word long accepted into a reused set")
	}
	one := New(65)
	one.Set(3)
	data, _ := one.MarshalBinary()
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(one) || got.Count() != 1 {
		t.Fatalf("after rejected blobs, decoded %v, want %v", &got, one)
	}
}

// TestAppendBinary: AppendBinary appends MarshalBinary's bytes behind
// what the buffer holds, and into its spare capacity without allocating.
func TestAppendBinary(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 11 {
		s.Set(i)
	}
	want, _ := s.MarshalBinary()
	buf := make([]byte, 3, 3+len(want))
	copy(buf, "hdr")
	got, err := s.AppendBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "hdr" || string(got[3:]) != string(want) {
		t.Fatal("AppendBinary did not append MarshalBinary's bytes")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.AppendBinary(buf[:3]) }); allocs != 0 {
		t.Errorf("AppendBinary into a buffer with room allocated %.1f times", allocs)
	}
}
