// Package fountain implements the sparse parity-check codes of §5.4.1 —
// the digital-fountain substrate the whole delivery architecture rests on.
//
// A file is divided into ` fixed-length source blocks x_1…x_`; an encoder
// emits a potentially unbounded stream of encoding symbols, each the
// bitwise XOR of a random subset of source blocks drawn from an irregular
// degree distribution. The decoder recovers the blocks with the
// substitution (peeling) rule of Luby et al.: any symbol with exactly one
// unknown neighbor yields that block, which is substituted into the
// remaining symbols, cascading until the file is restored. Sparse codes
// need a few percent more than ` symbols; the paper's code had average
// degree 11 and ≈6.8% decoding overhead on 23,968 blocks, and its
// simulations assume a constant 7% (§6.1) — behaviours this package
// reproduces empirically (experiment E11).
//
// Each encoding symbol is identified by a 64-bit seed from which its
// degree and neighbor set are derived deterministically, matching the
// paper's "64-bit degree sequence representations": senders never ship
// explicit neighbor lists, only the seed.
package fountain

import (
	"fmt"
	"math"
	"sort"

	"icd/internal/prng"
)

// Distribution is a probability distribution over symbol degrees 1..Max.
// Draw is O(log Max) via binary search over the CDF.
type Distribution struct {
	name string
	pmf  []float64 // pmf[i] = P(degree = i+1)
	cdf  []float64
	mean float64
}

func newDistribution(name string, weights []float64) *Distribution {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("fountain: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("fountain: empty distribution")
	}
	d := &Distribution{
		name: name,
		pmf:  make([]float64, len(weights)),
		cdf:  make([]float64, len(weights)),
	}
	acc := 0.0
	for i, w := range weights {
		p := w / total
		d.pmf[i] = p
		acc += p
		d.cdf[i] = acc
		d.mean += p * float64(i+1)
	}
	d.cdf[len(d.cdf)-1] = 1 // guard against rounding
	return d
}

// Name identifies the distribution for diagnostics.
func (d *Distribution) Name() string { return d.name }

// MaxDegree returns the largest degree with non-zero probability.
func (d *Distribution) MaxDegree() int { return len(d.pmf) }

// Mean returns the average degree, the quantity that governs encode and
// decode cost ("encoding and decoding times are a function of the average
// degree, not the maximum", §5.4.1).
func (d *Distribution) Mean() float64 { return d.mean }

// PMF returns P(degree = deg); 0 outside [1, MaxDegree].
func (d *Distribution) PMF(deg int) float64 {
	if deg < 1 || deg > len(d.pmf) {
		return 0
	}
	return d.pmf[deg-1]
}

// Draw samples a degree in [1, MaxDegree].
func (d *Distribution) Draw(rng *prng.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(d.cdf, u) + 1
}

// IdealSoliton is the ideal soliton distribution on degrees 1..n:
// ρ(1) = 1/n, ρ(d) = 1/(d(d−1)). In expectation one symbol becomes
// peelable per recovery, but it is fragile in practice — included as the
// analytic baseline.
func IdealSoliton(n int) *Distribution {
	if n < 1 {
		panic("fountain: n < 1")
	}
	w := make([]float64, n)
	w[0] = 1 / float64(n)
	for d := 2; d <= n; d++ {
		w[d-1] = 1 / (float64(d) * float64(d-1))
	}
	return newDistribution(fmt.Sprintf("ideal-soliton(n=%d)", n), w)
}

// RobustSoliton is Luby's robust soliton distribution with parameters c
// and delta: the ideal soliton plus the extra component
//
//	τ(d) = S/(dn)            for d = 1 … n/S−1
//	τ(n/S) = S·ln(S/δ)/n
//
// where S = c·ln(n/δ)·√n, renormalized. It is the canonical provably good
// sparse distribution; with c ≈ 0.03 and δ ≈ 0.5 its average degree for
// n ≈ 24k lands at ≈ 11, matching §6.1's code.
func RobustSoliton(n int, c, delta float64) *Distribution {
	if n < 1 {
		panic("fountain: n < 1")
	}
	if c <= 0 || delta <= 0 || delta >= 1 {
		panic("fountain: bad robust soliton parameters")
	}
	if n == 1 {
		return newDistribution("robust-soliton(n=1)", []float64{1})
	}
	s := c * math.Log(float64(n)/delta) * math.Sqrt(float64(n))
	if s < 1 {
		s = 1
	}
	spike := int(float64(n) / s)
	if spike < 1 {
		spike = 1
	}
	if spike > n {
		spike = n
	}
	w := make([]float64, n)
	// ideal soliton component
	w[0] = 1 / float64(n)
	for d := 2; d <= n; d++ {
		w[d-1] = 1 / (float64(d) * float64(d-1))
	}
	// robust component
	for d := 1; d < spike; d++ {
		w[d-1] += s / (float64(d) * float64(n))
	}
	w[spike-1] += s * math.Log(s/delta) / float64(n)
	return newDistribution(fmt.Sprintf("robust-soliton(n=%d,c=%g,δ=%g)", n, c, delta), w)
}

// DefaultEncoding returns the library's tuned encoding distribution for n
// source blocks: a robust soliton with c = 0.03, δ = 0.5, the best
// all-scale point of our calibration sweep (`go run ./cmd/icdbench -exp
// coding` re-measures it):
// measured decoding overhead ≈ 18% at n=300, 13% at n=1000, 4.3% at
// n=10000 and ≈ 3.2% at the paper's n = 23,968 with mean degree ≈ 16
// (the paper's proprietary heuristic: degree 11, overhead 6.8%; the paper
// itself notes that distributions "such as those of [16]" — which the
// robust soliton is — "will slightly improve all of our results").
// Parameters remain valid through the paper's "up to 500K symbols" range.
func DefaultEncoding(n int) *Distribution {
	return RobustSoliton(n, 0.03, 0.5)
}

// TruncatedHeavyTail is the heuristic irregular distribution of §5.4.2
// used for recoding: heavy-tailed like a soliton but hard-capped at
// maxDegree ("we advocate use of a fixed degree limit primarily to keep
// the listing of identifiers short"), avoiding degree-1 symbols beyond
// the soliton share ("tend to avoid low degree symbols, which may provide
// short-term benefit, but which are often useless").
func TruncatedHeavyTail(n, maxDegree int) *Distribution {
	if n < 1 {
		panic("fountain: n < 1")
	}
	if maxDegree < 1 {
		panic("fountain: maxDegree < 1")
	}
	if maxDegree > n {
		maxDegree = n
	}
	if maxDegree == 1 {
		return newDistribution("heavy-tail(max=1)", []float64{1})
	}
	w := make([]float64, maxDegree)
	w[0] = 1 / float64(n)
	for d := 2; d <= maxDegree; d++ {
		w[d-1] = 1 / (float64(d) * float64(d-1))
	}
	// Fold the truncated tail mass Σ_{d>max} 1/(d(d−1)) = 1/max onto the
	// cap so high-degree coverage survives truncation (the "spike").
	w[maxDegree-1] += 1 / float64(maxDegree)
	return newDistribution(fmt.Sprintf("heavy-tail(n=%d,max=%d)", n, maxDegree), w)
}

// CappedRobustSoliton is a robust soliton with every degree above
// maxDegree folded onto the cap. It is the shape we use for recoding
// (§6.1: "the degree distribution for recoding was created similarly
// [heuristically, like the encoding one] with a degree limit of 50"):
// soliton-like low-degree mass keeps the substitution-rule ripple
// self-seeding — essential for a sender recoding over a domain the
// receiver knows nothing of (Recode/BF) — while the cap keeps the
// identifier lists in packet headers short. For domains where the robust
// spike n/S exceeds the cap, folding degrades decodability; that is the
// §6.3 "recode over too large a domain" failure mode, reproduced by the
// ablation bench.
func CappedRobustSoliton(n int, c, delta float64, maxDegree int) *Distribution {
	if maxDegree < 1 {
		panic("fountain: maxDegree < 1")
	}
	full := RobustSoliton(n, c, delta)
	if full.MaxDegree() <= maxDegree {
		return full
	}
	w := make([]float64, maxDegree)
	copy(w, full.pmf[:maxDegree])
	var tail float64
	for _, p := range full.pmf[maxDegree:] {
		tail += p
	}
	w[maxDegree-1] += tail
	return newDistribution(fmt.Sprintf("capped-robust-soliton(n=%d,c=%g,δ=%g,max=%d)",
		n, c, delta, maxDegree), w)
}
