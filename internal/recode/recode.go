// Package recode implements the recoded-content machinery of §5.4.2: the
// device that lets a peer holding only *partial* content act as a useful,
// fountain-like sender.
//
// A recoded symbol is the bitwise XOR of a set of already-encoded symbols
// and is shipped with the explicit list of the encoded-symbol identifiers
// it blends ("a recoded symbol must enumerate the encoded symbols from
// which it was produced ... these lists can be stored concisely in packet
// headers"); degrees are capped (the paper uses 50) to keep that list
// short. Decoding uses the same substitution rule as the underlying
// sparse parity-check code, one level up: a recoded symbol with exactly
// one constituent the receiver lacks immediately yields that encoded
// symbol; others are buffered and resolve as the working set grows.
//
// Degree selection is where reconciliation information pays off. With
// containment c = |A∩B|/|B| (receiver A, sender B), the probability that
// a degree-d recoded symbol drawn uniformly from B's n symbols is
// *immediately* useful is
//
//	P(d) = C(cn, d−1)·(1−c)n / C(n, d),
//
// choosing d−1 constituents the receiver has and exactly one it lacks.
// The ratio test P(d+1) ≥ P(d) ⇔ d ≤ (cn+1)/(n−cn) shows P is unimodal
// with maximum at
//
//	d* = ⌊(cn+1)/(n−cn)⌋ + 1,
//
// which increases with c exactly as the paper's prose says ("as recoded
// symbols are received, correlation naturally increases and the target
// degree increases accordingly"). (The formula printed in the paper's
// §5.4.2 is garbled by typesetting; the derivation above reconstructs
// it.) Because maximizing immediate utility risks fully redundant
// symbols, §5.4.2 uses d* only as a *lower limit* and draws degrees
// between d* and the cap from the irregular distribution; the Recode/MW
// strategy of §6.2 instead rescales an oblivious draw d to ⌊d/(1−c)⌋.
// Both policies are provided.
//
// The fetch engine (internal/peer) runs none of this: a partial sender
// there sends the symbols it holds as they are, once each, pruned by the
// receiver's summary — §6.1's "recoding is not generally necessary". The
// package serves the Fig 5–8 simulator (strategy, transfer, experiment)
// and the icd facade's toolbox.
package recode

import (
	"errors"
	"fmt"
	"math"

	"icd/internal/fountain"
	"icd/internal/keyset"
	"icd/internal/prng"
	"icd/internal/xorblock"
)

// MaxDegree is the paper's recoding degree limit (§6.1: "a degree limit
// of 50").
const MaxDegree = 50

// Symbol is one recoded symbol: the identifiers of the encoded symbols
// XORed together, and optionally the XOR payload (nil when the caller
// works at the symbol-identity level, as the transfer simulator does).
type Symbol struct {
	IDs  []uint64
	Data []byte
}

// Degree returns the number of blended encoded symbols.
func (s Symbol) Degree() int { return len(s.IDs) }

// OptimalImmediateDegree returns d*, the degree maximizing the
// probability that a recoded symbol is immediately useful, given the
// sender's working-set size n and the containment estimate c ∈ [0,1].
// The result is clamped to [1, n].
func OptimalImmediateDegree(n int, c float64) int {
	if n <= 1 {
		return 1
	}
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	k := c * float64(n) // symbols the receiver already has
	den := float64(n) - k
	if den < 1 { // c ≈ 1: everything known, max blending
		return n
	}
	d := int((k+1)/den) + 1
	if d < 1 {
		d = 1
	}
	if d > n {
		d = n
	}
	return d
}

// ImmediateUsefulProbability evaluates P(d) above (useful for tests and
// for the ablation bench). Computed in log space to avoid overflow.
func ImmediateUsefulProbability(n int, c float64, d int) float64 {
	k := int(c*float64(n) + 0.5)
	if d < 1 || d > n || n-k < 1 || d-1 > k {
		return 0
	}
	// P = C(k, d-1) * (n-k) / C(n, d)
	// log C(a, b) via sum of logs; n is small enough in practice (≤ 10^6).
	logC := func(a, b int) float64 {
		if b < 0 || b > a {
			return math.Inf(-1)
		}
		var s float64
		for i := 0; i < b; i++ {
			s += math.Log(float64(a-i)) - math.Log(float64(b-i))
		}
		return s
	}
	lp := logC(k, d-1) + math.Log(float64(n-k)) - logC(n, d)
	return math.Exp(lp)
}

// DegreePolicy selects how a sender chooses recoded degrees.
type DegreePolicy int

const (
	// Oblivious draws from the irregular recoding distribution with no
	// knowledge of the receiver (the plain Recode strategy of §6.2).
	Oblivious DegreePolicy = iota
	// MinwiseScaled rescales an oblivious draw d to ⌊d/(1−c)⌋, capped —
	// the Recode/MW strategy of §6.2.
	MinwiseScaled
	// LowerBounded draws from the distribution but clamps below by the
	// optimal immediate degree d* — §5.4.2's "we use this value of d as a
	// lower limit on the actual degrees generated".
	LowerBounded
	// CoverageAdaptive ignores the c argument and instead tracks an
	// estimate of how much of the domain the receiver has already
	// obtained over this connection (q̂ = sent/|domain|), choosing the
	// optimal degree d*(q̂) each time. This is §5.4.2's dynamic note —
	// "as recoded symbols are received, correlation naturally increases
	// and the target degree increases accordingly" — and is the policy
	// the Recode/BF strategy uses: its Bloom-filtered domain starts with
	// containment exactly 0 (every symbol useful, so early transmissions
	// are degree-1: §6.1's "a partial sender can find symbols of
	// guaranteed utility ... recoding is not generally necessary"), and
	// degrees rise as duplicates become likely, without any summary
	// updates from the receiver.
	CoverageAdaptive
)

// String names the policy as the paper's §6.2 strategy table does.
func (p DegreePolicy) String() string {
	switch p {
	case Oblivious:
		return "oblivious"
	case MinwiseScaled:
		return "minwise-scaled"
	case LowerBounded:
		return "lower-bounded"
	case CoverageAdaptive:
		return "coverage-adaptive"
	default:
		return fmt.Sprintf("DegreePolicy(%d)", int(p))
	}
}

// Recoder generates recoded symbols from a sender's working set (or a
// reconciled subset of it — the caller chooses the domain, which is how
// Recode/BF restricts blending to symbols the receiver lacks).
//
// Symbol buffers (constituent lists and payloads) are drawn from
// internal freelists; a caller that returns finished symbols via Release
// makes the steady-state Next path allocation-free. Callers that retain
// symbols simply never release them. Not safe for concurrent use.
type Recoder struct {
	domain   []uint64 // blendable encoded-symbol ids
	payloads [][]byte // index-aligned with domain; nil at identity level
	dist     *fountain.Distribution
	maxDeg   int
	rng      *prng.Rand
	sent     int     // transmissions so far
	coverage float64 // estimated fraction of domain delivered (CoverageAdaptive)

	idx        []int      // sampling scratch, reused across symbols
	freeIDs    [][]uint64 // released constituent lists
	freeData   [][]byte   // released payload buffers
	payloadLen int        // uniform payload size (payload mode only)
}

// Options configure a Recoder.
type Options struct {
	// Dist is the recoding degree distribution; nil uses the §6.1 default
	// (heavy-tailed, capped at MaxDegree) over the domain size.
	Dist *fountain.Distribution
	// MaxDegree caps degrees; 0 uses MaxDegree (50).
	MaxDegree int
	// Payloads, if non-nil, maps encoded symbol id → payload so that Next
	// can produce real XOR data. If nil the Recoder works at identity
	// level and emits nil Data.
	Payloads map[uint64][]byte
}

// NewRecoder snapshots the domain and prepares a generator. The payload
// map, if any, is resolved into a slice aligned with the domain once,
// here, so Next indexes instead of looking each blended symbol up.
func NewRecoder(rng *prng.Rand, domain *keyset.Set, opt Options) (*Recoder, error) {
	ids := domain.Keys()
	if len(ids) == 0 {
		return nil, errors.New("recode: empty domain")
	}
	maxDeg := opt.MaxDegree
	if maxDeg <= 0 {
		maxDeg = MaxDegree
	}
	if maxDeg > len(ids) {
		maxDeg = len(ids)
	}
	dist := opt.Dist
	if dist == nil {
		dist = fountain.CappedRobustSoliton(len(ids), 0.1, 0.5, maxDeg)
	}
	if dist.MaxDegree() > len(ids) {
		return nil, fmt.Errorf("recode: distribution max degree %d exceeds domain %d",
			dist.MaxDegree(), len(ids))
	}
	r := &Recoder{domain: ids, dist: dist, maxDeg: maxDeg, rng: rng}
	if opt.Payloads != nil {
		r.payloads = make([][]byte, len(ids))
		for i, id := range ids {
			p, ok := opt.Payloads[id]
			if !ok {
				return nil, fmt.Errorf("recode: no payload for domain symbol %d", id)
			}
			if i == 0 {
				r.payloadLen = len(p)
			} else if len(p) != r.payloadLen {
				return nil, fmt.Errorf("recode: payload for symbol %d is %d bytes, want %d",
					id, len(p), r.payloadLen)
			}
			r.payloads[i] = p
		}
	}
	return r, nil
}

// DomainSize returns the number of blendable symbols.
func (r *Recoder) DomainSize() int { return len(r.domain) }

// Next emits one recoded symbol under the given policy. c is the
// containment estimate (ignored by Oblivious). Degrees are clamped to
// [1, min(maxDegree, |domain|)].
func (r *Recoder) Next(policy DegreePolicy, c float64) Symbol {
	d := r.dist.Draw(r.rng)
	switch policy {
	case Oblivious:
		// keep d
	case MinwiseScaled:
		if c > 0 {
			if c >= 1 {
				d = r.maxDeg
			} else {
				d = int(float64(d) / (1 - c))
			}
		}
	case LowerBounded:
		if dOpt := OptimalImmediateDegree(len(r.domain), c); d < dOpt {
			d = dOpt
		}
	case CoverageAdaptive:
		d = OptimalImmediateDegree(len(r.domain), r.coverage)
	}
	r.sent++
	// Advance the self-consistent coverage estimate: the sender credits
	// itself with the expected immediate usefulness of what it just sent.
	// This deliberately under-counts (buffered symbols that resolve later
	// are ignored), keeping the degree schedule conservative so it can
	// never run far ahead of the receiver's true state.
	if m := float64(len(r.domain)); r.coverage < 1-1/m {
		r.coverage += ImmediateUsefulProbability(len(r.domain), r.coverage, d) / m
		if max := 1 - 1/m; r.coverage > max {
			r.coverage = max
		}
	}
	if d > r.maxDeg {
		d = r.maxDeg
	}
	if d > len(r.domain) {
		d = len(r.domain)
	}
	if d < 1 {
		d = 1
	}
	r.idx = r.rng.SampleIntsInto(len(r.domain), d, r.idx)
	var ids []uint64
	if n := len(r.freeIDs); n > 0 {
		ids = r.freeIDs[n-1][:0]
		r.freeIDs = r.freeIDs[:n-1]
	} else {
		ids = make([]uint64, 0, r.maxDeg)
	}
	for _, j := range r.idx[:d] {
		ids = append(ids, r.domain[j])
	}
	sym := Symbol{IDs: ids}
	if r.payloads != nil {
		first := r.payloads[r.idx[0]]
		var data []byte
		if n := len(r.freeData); n > 0 {
			data = r.freeData[n-1]
			r.freeData = r.freeData[:n-1]
		} else {
			data = make([]byte, len(first))
		}
		copy(data, first)
		for _, j := range r.idx[1:d] {
			xorblock.XorInto(data, r.payloads[j])
		}
		sym.Data = data
	}
	return sym
}

// Release returns a symbol's buffers to the recoder's freelists. The
// caller must not use sym afterwards. Buffers that did not come from
// this recoder (wrong capacity or size) are ignored.
func (r *Recoder) Release(sym Symbol) {
	if cap(sym.IDs) >= r.maxDeg {
		r.freeIDs = append(r.freeIDs, sym.IDs[:0])
	}
	if len(sym.Data) == r.payloadLen && r.payloads != nil {
		r.freeData = append(r.freeData, sym.Data)
	}
}

// Decoder peels recoded symbols back into encoded symbols. It mirrors the
// fountain decoder one level up: known encoded symbols reduce incoming
// recoded symbols; degree-1 residuals recover a new encoded symbol, which
// cascades through the buffer. The §5.4.2 worked example (z1 = y13,
// z2 = y5⊕y8, z3 = y5⊕y13 recovering y13, then y5, then y8) is exactly
// this process and is reproduced in the tests.
type Decoder struct {
	known    map[uint64][]byte // encoded id -> payload (nil in identity mode)
	pending  map[uint64][]int
	buf      []*pendingRec
	withData bool

	received  int
	redundant int
	recovered int // encoded symbols recovered via recoding (not direct adds)

	unknowns []uint64 // per-Add scratch for the unresolved-id set
	queue    []recRec
	spare    [][]byte // payload buffers freed by redundant symbols, reused
}

type pendingRec struct {
	data    []byte
	unknown []uint64
	dead    bool
}

type recRec struct {
	id   uint64
	data []byte
}

// drop removes id from the unknown set, reporting whether it was there.
func (pr *pendingRec) drop(id uint64) bool {
	for i, u := range pr.unknown {
		if u == id {
			last := len(pr.unknown) - 1
			pr.unknown[i] = pr.unknown[last]
			pr.unknown = pr.unknown[:last]
			return true
		}
	}
	return false
}

// NewDecoder creates a recode decoder. withData selects payload tracking;
// identity-level users (the transfer simulator) pass false.
func NewDecoder(withData bool) *Decoder {
	return &Decoder{
		known:    make(map[uint64][]byte),
		pending:  make(map[uint64][]int),
		withData: withData,
	}
}

// AddKnown registers an encoded symbol the receiver already holds (its
// initial working set, or a regular symbol received directly). data may
// be nil in identity mode. Newly known symbols cascade through buffered
// recoded symbols; the ids of encoded symbols recovered as a consequence
// are returned.
func (d *Decoder) AddKnown(id uint64, data []byte) []uint64 {
	if _, ok := d.known[id]; ok {
		return nil
	}
	return d.propagate(id, data, false)
}

// Knows reports whether the receiver holds encoded symbol id.
func (d *Decoder) Knows(id uint64) bool {
	_, ok := d.known[id]
	return ok
}

// KnownCount returns the number of encoded symbols held.
func (d *Decoder) KnownCount() int { return len(d.known) }

// Payload returns the stored payload for an encoded symbol (nil in
// identity mode or if unknown).
func (d *Decoder) Payload(id uint64) []byte { return d.known[id] }

// Received returns the number of recoded symbols ingested.
func (d *Decoder) Received() int { return d.received }

// Redundant returns the number of recoded symbols that were fully
// reducible on arrival (contributed nothing, §5.4.2's "completely
// redundant symbols").
func (d *Decoder) Redundant() int { return d.redundant }

// RecoveredViaRecoding returns the number of encoded symbols obtained by
// peeling recoded symbols (excludes AddKnown).
func (d *Decoder) RecoveredViaRecoding() int { return d.recovered }

// Buffered returns the number of recoded symbols still waiting on two or
// more unknown constituents.
func (d *Decoder) Buffered() int {
	n := 0
	for _, p := range d.buf {
		if !p.dead {
			n++
		}
	}
	return n
}

// Add ingests one recoded symbol, returning the ids of encoded symbols
// newly recovered (directly or by cascade). The decoder copies sym.Data;
// the caller keeps ownership of the symbol's buffers.
func (d *Decoder) Add(sym Symbol) ([]uint64, error) {
	if len(sym.IDs) == 0 {
		return nil, errors.New("recode: empty recoded symbol")
	}
	if d.withData && sym.Data == nil {
		return nil, errors.New("recode: payload-tracking decoder got nil data")
	}
	d.received++

	var data []byte
	if d.withData {
		data = d.scratchBuf(len(sym.Data))
		copy(data, sym.Data)
	}
	unknown := d.unknowns[:0]
	for _, id := range sym.IDs {
		if payload, ok := d.known[id]; ok {
			if d.withData {
				if len(payload) != len(data) {
					d.spare = append(d.spare, data)
					return nil, fmt.Errorf("recode: payload size mismatch for %d", id)
				}
				xorblock.XorInto(data, payload)
			}
		} else {
			// XOR semantics: duplicate ids cancel. Degrees are capped, so
			// the linear scan beats a per-symbol map allocation.
			if i := indexOf(unknown, id); i >= 0 {
				last := len(unknown) - 1
				unknown[i] = unknown[last]
				unknown = unknown[:last]
			} else {
				unknown = append(unknown, id)
			}
		}
	}
	d.unknowns = unknown[:0]
	switch len(unknown) {
	case 0:
		d.redundant++
		if data != nil {
			d.spare = append(d.spare, data)
		}
		return nil, nil
	case 1:
		return d.propagate(unknown[0], data, true), nil
	default:
		pr := &pendingRec{data: data, unknown: append([]uint64(nil), unknown...)}
		d.buf = append(d.buf, pr)
		at := len(d.buf) - 1
		for _, id := range pr.unknown {
			d.pending[id] = append(d.pending[id], at)
		}
		return nil, nil
	}
}

func indexOf(s []uint64, v uint64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// scratchBuf returns an n-byte scratch buffer, reusing buffers surrendered by
// redundant symbols so a saturated decoder stops allocating.
func (d *Decoder) scratchBuf(n int) []byte {
	if m := len(d.spare); m > 0 {
		b := d.spare[m-1]
		d.spare = d.spare[:m-1]
		if len(b) == n {
			return b
		}
		// size changed mid-stream (only possible across contents); drop it
	}
	return make([]byte, n)
}

// propagate records a newly known encoded symbol and runs the cascade.
// viaRecode marks whether the root recovery came from a recoded symbol.
func (d *Decoder) propagate(id uint64, data []byte, viaRecode bool) []uint64 {
	var out []uint64
	queue := append(d.queue[:0], recRec{id, data})
	first := true
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if _, ok := d.known[r.id]; ok {
			// Another cascade path got here first; r.data belongs to a dead
			// pending symbol and can be recycled.
			if r.data != nil && head > 0 {
				d.spare = append(d.spare, r.data)
			}
			continue
		}
		d.known[r.id] = r.data
		if viaRecode || !first {
			d.recovered++
			out = append(out, r.id)
		}
		first = false
		waiters := d.pending[r.id]
		delete(d.pending, r.id)
		for _, w := range waiters {
			pr := d.buf[w]
			if pr.dead || !pr.drop(r.id) {
				continue
			}
			if d.withData && r.data != nil {
				xorblock.XorInto(pr.data, r.data)
			}
			switch len(pr.unknown) {
			case 1:
				pr.dead = true
				queue = append(queue, recRec{pr.unknown[0], pr.data})
			case 0:
				pr.dead = true
				if pr.data != nil {
					d.spare = append(d.spare, pr.data)
				}
			}
		}
	}
	d.queue = queue[:0] // retain capacity for the next cascade
	if !viaRecode && len(out) == 0 {
		// AddKnown of a fresh id with no cascade: report nothing, but the
		// id itself is now known (callers track that via Knows).
		return nil
	}
	return out
}
