// Package strategy implements the five content-selection strategies
// compared in §6.2/§6.3 of the paper. A strategy is the sender-side rule
// for choosing what to put in the next packet of one peer-to-peer
// connection:
//
//	Random     — pick an available symbol uniformly at random (with
//	             replacement: the sender is stateless and memoryless, so
//	             compact scenarios degenerate to the coupon collector's
//	             problem, as §6.3 observes). Used by Swarmcast.
//	Random/BF  — Random, filtered by the receiver's Bloom filter: only
//	             symbols the filter reports absent are candidates.
//	Recode     — recoded symbols blended over the sender's entire
//	             working set, degrees drawn obliviously.
//	Recode/BF  — recoded symbols blended only over the symbols not in
//	             the receiver's Bloom filter.
//	Recode/MW  — recoded symbols over the whole working set with degrees
//	             rescaled by ⌊d/(1−c)⌋ using the min-wise containment
//	             estimate c.
//
// Following §6.1 the receiver's summaries are transmitted once at
// connection setup and never updated ("we never send updates to our
// Bloom filter — doing so would of course provide a commensurate
// improvement"), so every strategy here is stateless per transmission.
package strategy

import (
	"errors"
	"fmt"

	"icd/internal/bloom"
	"icd/internal/keyset"
	"icd/internal/minwise"
	"icd/internal/prng"
	"icd/internal/recode"
)

// Kind identifies one of the paper's strategies.
type Kind int

const (
	Random Kind = iota
	RandomBF
	Recode
	RecodeBF
	RecodeMW
)

// AllKinds lists every strategy in the order the paper's figures plot
// them.
var AllKinds = []Kind{Random, RandomBF, Recode, RecodeBF, RecodeMW}

func (k Kind) String() string {
	switch k {
	case Random:
		return "Random"
	case RandomBF:
		return "Random/BF"
	case Recode:
		return "Recode"
	case RecodeBF:
		return "Recode/BF"
	case RecodeMW:
		return "Recode/MW"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// UsesBloom reports whether the strategy consumes the receiver's Bloom
// filter.
func (k Kind) UsesBloom() bool { return k == RandomBF || k == RecodeBF }

// UsesMinwise reports whether the strategy consumes min-wise sketches.
func (k Kind) UsesMinwise() bool { return k == RecodeMW }

// Config carries the reconciliation parameters shared by a connection.
// The zero value selects the paper's §6.1 settings via Default.
type Config struct {
	BloomBitsPerElement float64 // default 8 (§5.2's low-fp operating point)
	BloomHashes         int     // default 5
	MinwiseSize         int     // default 128 (1KB sketch)
	MinwiseFamilySeed   uint64  // shared permutation family
	RecodeMaxDegree     int     // default 50 (§6.1)
	SummarySeed         uint64  // hash seed for Bloom filters

	// RecodeDomainLimit caps the size of each recoding domain chunk for
	// Recode/BF — §6.1's "we restrict the recoding domain to an
	// appropriate small size". The filtered pool is shuffled and split
	// into chunks of at most this size; the sender recodes over one chunk
	// for a fixed budget of transmissions, then rotates to the next
	// (wrapping around), all without any feedback from the receiver.
	// 0 picks a heuristic (pool/6 clamped to [100, 2000]); negative
	// disables chunking (one domain = the whole filtered pool).
	RecodeDomainLimit int
	// RecodeChunkBudget is the per-chunk transmission budget as a
	// multiple of the chunk size (covers the sparse code's decoding
	// overhead); 0 defaults to 1.3.
	RecodeChunkBudget float64
}

// Default fills zero fields with the paper's parameters.
func (c Config) Default() Config {
	if c.BloomBitsPerElement == 0 {
		c.BloomBitsPerElement = 8
	}
	if c.BloomHashes == 0 {
		c.BloomHashes = 5
	}
	if c.MinwiseSize == 0 {
		c.MinwiseSize = minwise.DefaultSize
	}
	if c.RecodeMaxDegree == 0 {
		c.RecodeMaxDegree = recode.MaxDegree
	}
	if c.RecodeChunkBudget == 0 {
		// Measured full-decode cost of the capped robust soliton is
		// ≈1.25× for chunk-sized domains (`go run ./cmd/icdbench -exp
		// coding` measures the code's overhead); the margin keeps the probability of an undecodable chunk — whose
		// gaps would wait a full rotation — small.
		c.RecodeChunkBudget = 1.35
	}
	return c
}

// chunkSize resolves the Recode/BF domain restriction for a pool of the
// given size.
func (c Config) chunkSize(pool int) int {
	switch {
	case c.RecodeDomainLimit < 0:
		return pool
	case c.RecodeDomainLimit > 0:
		return c.RecodeDomainLimit
	}
	s := pool / 3
	if s < 128 {
		s = 128
	}
	if s > 2048 {
		s = 2048
	}
	return s
}

// Sender is the per-connection transmit state of a partial sender running
// one strategy. Create with NewSender; call Next for each transmission.
type Sender struct {
	kind     Kind
	rng      *prng.Rand
	working  *keyset.Set // the sender's full working set
	pool     *keyset.Set // candidate pool for Random variants (≠ nil)
	recoder  *recode.Recoder
	chunks   *chunkedRecoder // Recode/BF rotating restricted domains
	policy   recode.DegreePolicy
	contain  float64 // minwise containment estimate c (RecodeMW)
	sent     int
	excluded int // symbols suppressed by Bloom false positives (diagnostic)
}

// chunkedRecoder implements §6.1's restricted recoding domains: the
// Bloom-filtered pool is shuffled and partitioned into small chunks; the
// sender recodes over one chunk for a fixed transmission budget (sized to
// the chunk's expected decoding overhead), then rotates. The receiver can
// fully decode each small chunk while it is current, so usefulness stays
// near-linear throughout the transfer — without any receiver feedback.
type chunkedRecoder struct {
	recoders []*recode.Recoder
	budgets  []int
	cur      int
	sentCur  int
	total    int
}

func newChunkedRecoder(rng *prng.Rand, pool *keyset.Set, chunkSize, maxDeg int, budget float64) (*chunkedRecoder, error) {
	ids := pool.Keys()
	rng.ShuffleUint64s(ids)
	cr := &chunkedRecoder{total: len(ids)}
	for lo := 0; lo < len(ids); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(ids) {
			hi = len(ids)
		}
		if hi-lo < chunkSize/4 && len(cr.recoders) > 0 {
			// Tiny trailing remainder: the previous chunk absorbs it so no
			// chunk is too small to recode usefully.
			merged := keyset.FromKeys(ids[lo-chunkSize : hi])
			rec, err := recode.NewRecoder(rng.Split(), merged, recode.Options{MaxDegree: maxDeg})
			if err != nil {
				return nil, err
			}
			last := len(cr.recoders) - 1
			cr.recoders[last] = rec
			cr.budgets[last] = int(budget*float64(merged.Len())) + 1
			break
		}
		chunk := keyset.FromKeys(ids[lo:hi])
		rec, err := recode.NewRecoder(rng.Split(), chunk, recode.Options{MaxDegree: maxDeg})
		if err != nil {
			return nil, err
		}
		cr.recoders = append(cr.recoders, rec)
		cr.budgets = append(cr.budgets, int(budget*float64(chunk.Len()))+1)
	}
	return cr, nil
}

func (c *chunkedRecoder) next() recode.Symbol {
	sym := c.recoders[c.cur].Next(recode.Oblivious, 0)
	c.sentCur++
	if c.sentCur >= c.budgets[c.cur] {
		c.cur = (c.cur + 1) % len(c.recoders)
		c.sentCur = 0
	}
	return sym
}

// NewSender builds the sender state for one connection.
//
// senderSet is the sender's working set of encoded-symbol ids.
// receiverSet is the *receiver's* working set, used only to construct the
// summaries the receiver would transmit at connection setup (its Bloom
// filter or min-wise sketch); the sender never reads it directly —
// faithful to the message flow of §3.
func NewSender(kind Kind, rng *prng.Rand, senderSet, receiverSet *keyset.Set, cfg Config) (*Sender, error) {
	if senderSet.Len() == 0 {
		return nil, errors.New("strategy: sender has no symbols")
	}
	cfg = cfg.Default()
	s := &Sender{kind: kind, rng: rng, working: senderSet}

	switch kind {
	case Random:
		s.pool = senderSet

	case RandomBF:
		filter := receiverFilter(receiverSet, cfg)
		s.pool = keyset.New(senderSet.Len())
		senderSet.Each(func(id uint64) {
			if !filter.Contains(id) {
				s.pool.Add(id)
			}
		})
		s.excluded = senderSet.Len() - s.pool.Len() - senderSet.IntersectionSize(receiverSet)
		if s.excluded < 0 {
			s.excluded = 0
		}
		if s.pool.Len() == 0 {
			// Nothing appears useful; fall back to blind random so the
			// connection still carries something (mirrors a real sender
			// that would not go silent).
			s.pool = senderSet
		}

	case Recode, RecodeMW:
		rec, err := recode.NewRecoder(rng.Split(), senderSet, recode.Options{MaxDegree: cfg.RecodeMaxDegree})
		if err != nil {
			return nil, err
		}
		s.recoder = rec
		s.policy = recode.Oblivious
		if kind == RecodeMW {
			s.policy = recode.MinwiseScaled
			sa := minwise.Build(cfg.MinwiseFamilySeed, cfg.MinwiseSize, receiverSet)
			sb := minwise.Build(cfg.MinwiseFamilySeed, cfg.MinwiseSize, senderSet)
			c, err := sa.ContainmentOf(sb)
			if err != nil {
				return nil, err
			}
			s.contain = c
		}

	case RecodeBF:
		filter := receiverFilter(receiverSet, cfg)
		domain := keyset.New(senderSet.Len())
		senderSet.Each(func(id uint64) {
			if !filter.Contains(id) {
				domain.Add(id)
			}
		})
		s.excluded = senderSet.Len() - domain.Len() - senderSet.IntersectionSize(receiverSet)
		if s.excluded < 0 {
			s.excluded = 0
		}
		if domain.Len() == 0 {
			domain = senderSet // degenerate: recode blindly
		}
		cr, err := newChunkedRecoder(rng.Split(), domain, cfg.chunkSize(domain.Len()),
			cfg.RecodeMaxDegree, cfg.RecodeChunkBudget)
		if err != nil {
			return nil, err
		}
		s.chunks = cr

	default:
		return nil, fmt.Errorf("strategy: unknown kind %v", kind)
	}
	return s, nil
}

func receiverFilter(receiverSet *keyset.Set, cfg Config) *bloom.Filter {
	return bloom.FromSet(cfg.SummarySeed, receiverSet, cfg.BloomBitsPerElement, cfg.BloomHashes)
}

// Kind returns the strategy this sender runs.
func (s *Sender) Kind() Kind { return s.kind }

// Sent returns the number of transmissions so far.
func (s *Sender) Sent() int { return s.sent }

// ExcludedByFalsePositives returns how many genuinely useful symbols the
// receiver's Bloom filter suppressed at setup (0 for non-BF strategies).
// These symbols can never be delivered on this connection — the failure
// mode §5.2 accepts by design.
func (s *Sender) ExcludedByFalsePositives() int { return s.excluded }

// PoolSize returns the candidate pool (Random variants) or recoding
// domain (Recode variants) size.
func (s *Sender) PoolSize() int {
	if s.pool != nil {
		return s.pool.Len()
	}
	if s.chunks != nil {
		return s.chunks.total
	}
	return s.recoder.DomainSize()
}

// Next produces the next transmission. Random strategies emit a degree-1
// symbol (a plain encoded symbol); Recode strategies emit a recoded
// symbol. Every call is independent — the sender keeps no per-receiver
// delivery state, the property §2.2/§2.3 demand for stateless migration.
func (s *Sender) Next() recode.Symbol {
	s.sent++
	if s.pool != nil {
		return recode.Symbol{IDs: []uint64{s.pool.Random(s.rng)}}
	}
	if s.chunks != nil {
		return s.chunks.next()
	}
	return s.recoder.Next(s.policy, s.contain)
}

// Containment returns the min-wise containment estimate used by
// Recode/MW (0 for other strategies).
func (s *Sender) Containment() float64 { return s.contain }
