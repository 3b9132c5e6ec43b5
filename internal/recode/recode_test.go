package recode

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"icd/internal/fountain"
	"icd/internal/keyset"
	"icd/internal/prng"
)

func TestOptimalImmediateDegree(t *testing.T) {
	// c = 0: receiver knows nothing of the sender's symbols → degree 1.
	if d := OptimalImmediateDegree(1000, 0); d != 1 {
		t.Fatalf("c=0: d* = %d, want 1", d)
	}
	// Degree must increase with c (the paper's prose property).
	prev := 0
	for _, c := range []float64{0, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99} {
		d := OptimalImmediateDegree(1000, c)
		if d < prev {
			t.Fatalf("d* decreased: c=%v d=%d prev=%d", c, d, prev)
		}
		prev = d
	}
	// c = 0.9 on n=1000: d* = floor((900+1)/100)+1 = 10.
	if d := OptimalImmediateDegree(1000, 0.9); d != 10 {
		t.Fatalf("c=0.9: d* = %d, want 10", d)
	}
	// Clamping.
	if d := OptimalImmediateDegree(1, 0.5); d != 1 {
		t.Fatalf("n=1: d* = %d", d)
	}
	if d := OptimalImmediateDegree(100, 1.0); d != 100 {
		t.Fatalf("c=1: d* = %d, want n", d)
	}
	if d := OptimalImmediateDegree(100, -0.5); d != 1 {
		t.Fatalf("c<0: d* = %d, want 1", d)
	}
}

func TestOptimalDegreeMaximizesProbability(t *testing.T) {
	// d* must beat its neighbors under the exact P(d).
	for _, tc := range []struct {
		n int
		c float64
	}{
		{200, 0.3}, {200, 0.6}, {500, 0.9}, {1000, 0.5},
	} {
		d := OptimalImmediateDegree(tc.n, tc.c)
		p := ImmediateUsefulProbability(tc.n, tc.c, d)
		pm := ImmediateUsefulProbability(tc.n, tc.c, d-1)
		pp := ImmediateUsefulProbability(tc.n, tc.c, d+1)
		const eps = 1e-9
		if p+eps < pm || p+eps < pp {
			t.Errorf("n=%d c=%v: P(%d)=%.6g not maximal (P(%d)=%.6g, P(%d)=%.6g)",
				tc.n, tc.c, d, p, d-1, pm, d+1, pp)
		}
	}
}

func TestImmediateUsefulProbabilityEdges(t *testing.T) {
	if p := ImmediateUsefulProbability(100, 0.5, 0); p != 0 {
		t.Fatalf("d=0: %v", p)
	}
	if p := ImmediateUsefulProbability(100, 1.0, 1); p != 0 {
		t.Fatalf("c=1,d=1: %v", p) // nothing unknown → cannot be useful
	}
	// c=0, d=1: always useful.
	if p := ImmediateUsefulProbability(100, 0, 1); math.Abs(p-1) > 1e-9 {
		t.Fatalf("c=0,d=1: %v, want 1", p)
	}
	// Larger d with c=0 → cannot have d−1 known constituents.
	if p := ImmediateUsefulProbability(100, 0, 2); p != 0 {
		t.Fatalf("c=0,d=2: %v, want 0", p)
	}
}

func TestRecoderDegreeBounds(t *testing.T) {
	rng := prng.New(1)
	domain := keyset.Random(rng, 200)
	r, err := NewRecoder(rng, domain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		s := r.Next(Oblivious, 0)
		if s.Degree() < 1 || s.Degree() > MaxDegree {
			t.Fatalf("degree %d out of [1,%d]", s.Degree(), MaxDegree)
		}
		seen := map[uint64]bool{}
		for _, id := range s.IDs {
			if !domain.Contains(id) || seen[id] {
				t.Fatalf("bad constituent set %v", s.IDs)
			}
			seen[id] = true
		}
	}
}

func TestMinwiseScaledRaisesDegree(t *testing.T) {
	rng := prng.New(2)
	domain := keyset.Random(rng, 500)
	r, err := NewRecoder(rng, domain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meanAt := func(policy DegreePolicy, c float64) float64 {
		var sum float64
		const trials = 3000
		for i := 0; i < trials; i++ {
			sum += float64(r.Next(policy, c).Degree())
		}
		return sum / trials
	}
	base := meanAt(Oblivious, 0)
	scaled := meanAt(MinwiseScaled, 0.8)
	if scaled < base*1.5 {
		t.Fatalf("minwise scaling did not raise degrees: base %.2f, c=0.8 %.2f", base, scaled)
	}
	capped := meanAt(MinwiseScaled, 0.999)
	if capped > MaxDegree {
		t.Fatalf("degrees exceeded cap: %.2f", capped)
	}
}

func TestLowerBoundedPolicy(t *testing.T) {
	rng := prng.New(3)
	domain := keyset.Random(rng, 400)
	r, err := NewRecoder(rng, domain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := 0.95
	dOpt := OptimalImmediateDegree(domain.Len(), c)
	for i := 0; i < 1000; i++ {
		if d := r.Next(LowerBounded, c).Degree(); d < dOpt && d < MaxDegree {
			t.Fatalf("degree %d below lower bound %d", d, dOpt)
		}
	}
}

func TestRecoderValidation(t *testing.T) {
	rng := prng.New(4)
	if _, err := NewRecoder(rng, keyset.New(0), Options{}); err == nil {
		t.Fatal("empty domain accepted")
	}
	domain := keyset.Random(rng, 10)
	if _, err := NewRecoder(rng, domain, Options{Dist: fountain.IdealSoliton(100)}); err == nil {
		t.Fatal("oversized distribution accepted")
	}
	// Payload map missing an id.
	if _, err := NewRecoder(rng, domain, Options{Payloads: map[uint64][]byte{}}); err == nil {
		t.Fatal("incomplete payload map accepted")
	}
	// Payloads must all be one size.
	payloads := make(map[uint64][]byte)
	for _, id := range domain.Keys() {
		payloads[id] = make([]byte, 8)
	}
	if _, err := NewRecoder(rng, domain, Options{Payloads: payloads}); err != nil {
		t.Fatalf("even payloads rejected: %v", err)
	}
	payloads[domain.Keys()[domain.Len()-1]] = make([]byte, 7)
	if _, err := NewRecoder(rng, domain, Options{Payloads: payloads}); err == nil {
		t.Fatal("ragged payload sizes accepted")
	}
}

// TestPaperWorkedExample reproduces §5.4.2 exactly: "a peer with output
// symbols y5, y8 and y13 can generate recoded symbols z1 = y13,
// z2 = y5 ⊕ y8 and z3 = y5 ⊕ y13. A peer that receives z1, z2 and z3 can
// immediately recover y13. Then by substituting y13 into z3, the peer can
// recover y5, and similarly, can recover y8 from z2."
func TestPaperWorkedExample(t *testing.T) {
	y5 := []byte{0x05}
	y8 := []byte{0x08}
	y13 := []byte{0x13}
	z1 := Symbol{IDs: []uint64{13}, Data: y13}
	z2 := Symbol{IDs: []uint64{5, 8}, Data: []byte{0x05 ^ 0x08}}
	z3 := Symbol{IDs: []uint64{5, 13}, Data: []byte{0x05 ^ 0x13}}

	d := NewDecoder(true)
	// z2 buffers (two unknowns), z3 buffers, z1 recovers y13 and cascades.
	got, err := d.Add(z2)
	if err != nil || len(got) != 0 {
		t.Fatalf("z2: got %v, %v", got, err)
	}
	got, err = d.Add(z3)
	if err != nil || len(got) != 0 {
		t.Fatalf("z3: got %v, %v", got, err)
	}
	got, err = d.Add(z1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("cascade recovered %v, want all three", got)
	}
	if !bytes.Equal(d.Payload(13), y13) || !bytes.Equal(d.Payload(5), y5) || !bytes.Equal(d.Payload(8), y8) {
		t.Fatalf("payloads wrong: y5=%x y8=%x y13=%x", d.Payload(5), d.Payload(8), d.Payload(13))
	}
	if d.RecoveredViaRecoding() != 3 {
		t.Fatalf("RecoveredViaRecoding = %d", d.RecoveredViaRecoding())
	}
}

func TestDecoderRedundant(t *testing.T) {
	d := NewDecoder(false)
	d.AddKnown(1, nil)
	d.AddKnown(2, nil)
	got, err := d.Add(Symbol{IDs: []uint64{1, 2}})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
	if d.Redundant() != 1 {
		t.Fatalf("Redundant = %d", d.Redundant())
	}
}

func TestDecoderIdentityMode(t *testing.T) {
	d := NewDecoder(false)
	d.AddKnown(10, nil)
	got, err := d.Add(Symbol{IDs: []uint64{10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("got %v, want [20]", got)
	}
	if !d.Knows(20) || d.KnownCount() != 2 {
		t.Fatal("decoder state wrong")
	}
}

func TestDecoderValidation(t *testing.T) {
	d := NewDecoder(true)
	if _, err := d.Add(Symbol{}); err == nil {
		t.Fatal("empty symbol accepted")
	}
	if _, err := d.Add(Symbol{IDs: []uint64{1}}); err == nil {
		t.Fatal("nil data accepted by payload decoder")
	}
}

func TestAddKnownCascades(t *testing.T) {
	d := NewDecoder(false)
	// Buffer a 2-unknown symbol, then AddKnown one of them directly
	// (e.g. a regular symbol arriving from a full sender).
	if _, err := d.Add(Symbol{IDs: []uint64{7, 9}}); err != nil {
		t.Fatal(err)
	}
	if d.Buffered() != 1 {
		t.Fatalf("Buffered = %d", d.Buffered())
	}
	got := d.AddKnown(7, nil)
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("cascade from AddKnown = %v, want [9]", got)
	}
	if d.Buffered() != 0 {
		t.Fatalf("Buffered = %d after cascade", d.Buffered())
	}
	// Duplicate AddKnown is a no-op.
	if got := d.AddKnown(7, nil); got != nil {
		t.Fatalf("duplicate AddKnown returned %v", got)
	}
}

func TestDuplicateIDsCancel(t *testing.T) {
	// XOR semantics: a symbol listing the same unknown id twice reduces
	// to a symbol without it.
	d := NewDecoder(false)
	d.AddKnown(1, nil)
	got, err := d.Add(Symbol{IDs: []uint64{1, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("got %v", got)
	}
	if d.Redundant() != 1 {
		t.Fatalf("Redundant = %d (5⊕5 cancels, only known 1 remains)", d.Redundant())
	}
}

// TestEndToEndPartialSender wires a full payload pipeline: sender holds a
// subset of encoded symbols, recodes them to the receiver; the receiver
// recovers all of the sender's symbols it lacked.
func TestEndToEndPartialSender(t *testing.T) {
	rng := prng.New(5)
	// Universe: 300 encoded symbols with random payloads.
	payloads := make(map[uint64][]byte)
	universe := keyset.New(300)
	for universe.Len() < 300 {
		id := rng.Uint64()
		if universe.Add(id) {
			p := make([]byte, 32)
			for i := range p {
				p[i] = byte(rng.Uint64())
			}
			payloads[id] = p
		}
	}
	// Sender holds all 300; receiver holds a random 150.
	recv := NewDecoder(true)
	held := universe.Sample(rng, 150)
	heldSet := keyset.FromKeys(held)
	for _, id := range held {
		recv.AddKnown(id, payloads[id])
	}
	c := float64(150) / 300

	r, err := NewRecoder(rng, universe, Options{Payloads: payloads})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; recv.KnownCount() < 300; i++ {
		if i > 30000 {
			t.Fatalf("stalled at %d/300", recv.KnownCount())
		}
		if _, err := recv.Add(r.Next(MinwiseScaled, c)); err != nil {
			t.Fatal(err)
		}
	}
	// Every recovered payload must be exact.
	universe.Each(func(id uint64) {
		if !bytes.Equal(recv.Payload(id), payloads[id]) {
			t.Fatalf("payload mismatch for %d", id)
		}
	})
	_ = heldSet
}

// Property: decoder soundness in identity mode — every id reported
// recovered was a constituent of some received symbol and was not known
// before.
func TestQuickDecoderSoundness(t *testing.T) {
	f := func(seed uint64) bool {
		rng := prng.New(seed)
		n := 20 + rng.Intn(30)
		domain := keyset.Random(rng, n)
		rec, err := NewRecoder(rng, domain, Options{})
		if err != nil {
			return false
		}
		d := NewDecoder(false)
		// Receiver starts with a random half.
		for _, id := range domain.Sample(rng, n/2) {
			d.AddKnown(id, nil)
		}
		for i := 0; i < 5*n; i++ {
			got, err := d.Add(rec.Next(Oblivious, 0))
			if err != nil {
				return false
			}
			for _, id := range got {
				if !domain.Contains(id) {
					return false
				}
			}
		}
		// Known set never exceeds the domain.
		return d.KnownCount() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecoderNext(b *testing.B) {
	rng := prng.New(1)
	domain := keyset.Random(rng, 23968)
	r, err := NewRecoder(rng, domain, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Next(MinwiseScaled, 0.5)
	}
}

func BenchmarkDecoderAdd(b *testing.B) {
	rng := prng.New(2)
	domain := keyset.Random(rng, 10000)
	r, _ := NewRecoder(rng, domain, Options{})
	syms := make([]Symbol, 10000)
	for i := range syms {
		syms[i] = r.Next(Oblivious, 0)
	}
	b.ResetTimer()
	d := NewDecoder(false)
	for i := 0; i < b.N; i++ {
		d.Add(syms[i%len(syms)])
	}
}

func TestRecoderReleaseReuse(t *testing.T) {
	rng := prng.New(3)
	domain := keyset.New(16)
	payloads := map[uint64][]byte{}
	for i := uint64(0); i < 16; i++ {
		domain.Add(i)
		p := make([]byte, 32)
		for j := range p {
			p[j] = byte(i*3 + uint64(j))
		}
		payloads[i] = p
	}
	r, err := NewRecoder(rng, domain, Options{Payloads: payloads})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(true)
	// Stream with immediate Release: the decoder copies, so recycling the
	// symbol's buffers must never corrupt decoded state.
	for i := 0; i < 200 && dec.KnownCount() < 16; i++ {
		sym := r.Next(Oblivious, 0)
		if _, err := dec.Add(sym); err != nil {
			t.Fatal(err)
		}
		r.Release(sym)
	}
	for id, want := range payloads {
		if got := dec.Payload(id); got != nil && !bytesEqual(got, want) {
			t.Fatalf("payload %d corrupted by buffer reuse", id)
		}
	}
	if dec.KnownCount() == 0 {
		t.Fatal("nothing decoded")
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecoderDuplicateIDsCancel(t *testing.T) {
	// XOR semantics: a recoded symbol listing the same unknown id twice
	// contributes nothing (y ⊕ y = 0); listing it three times is the same
	// as once.
	d := NewDecoder(false)
	d.AddKnown(1, nil)
	if got, err := d.Add(Symbol{IDs: []uint64{2, 2, 1}}); err != nil || len(got) != 0 {
		t.Fatalf("double unknown id: got %v, %v", got, err)
	}
	if d.Redundant() != 1 {
		t.Fatalf("redundant = %d, want 1", d.Redundant())
	}
	got, err := d.Add(Symbol{IDs: []uint64{3, 3, 3, 1}})
	if err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("triple unknown id: got %v, %v", got, err)
	}
}

func TestRecoderNextZeroAlloc(t *testing.T) {
	rng := prng.New(1)
	domain := keyset.Random(prng.New(2), 1000)
	payloads := make(map[uint64][]byte, domain.Len())
	domain.Each(func(id uint64) {
		payloads[id] = make([]byte, 1400)
	})
	rec, err := NewRecoder(rng, domain, Options{Payloads: payloads})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec.Release(rec.Next(Oblivious, 0))
	}
	if avg := testing.AllocsPerRun(200, func() {
		rec.Release(rec.Next(Oblivious, 0))
	}); avg != 0 {
		t.Fatalf("Recoder.Next steady state allocates %.1f allocs/op, want 0", avg)
	}
}
