package strategy

// summary.go is the fetch engine's hookup of the protocol's v3 summary
// negotiation, and all of this package the engine uses: building the
// receiver's working-set summary for the negotiated method, parsing a
// received one, and asking it which of the sender's symbols the receiver
// is missing — the §3 accuracy/size trade-off made operational on the
// real wire instead of only in the transfer simulator.

import (
	"errors"
	"fmt"

	"icd/internal/bloom"
	"icd/internal/keyset"
	"icd/internal/minwise"
	"icd/internal/protocol"
	"icd/internal/recon"
)

// ART wire-format parameters shared by all v3 peers: the paper's 8
// bits/element split 5 leaf + 3 internal (Figure 4a's operating point)
// and one level of pruning correction.
const (
	artTotalBits  = 8
	artLeafBits   = 5
	artCorrection = 1
)

// BuildSummary marshals the receiver's working set — its ids, distinct,
// in any order — under the negotiated method, ready for
// protocol.EncodeSummary. Sizing and seeds are the paper's §6.1 settings
// (Config's defaults), which every peer on the wire shares.
func BuildSummary(method protocol.SummaryMethod, held []uint64) ([]byte, error) {
	cfg := Config{}.Default()
	switch method {
	case protocol.SummaryBloom:
		filter := bloom.NewWithBitsPerElement(cfg.SummarySeed, max(len(held), 1), cfg.BloomBitsPerElement, cfg.BloomHashes)
		for _, id := range held {
			filter.Add(id)
		}
		return filter.MarshalBinary()
	case protocol.SummarySketch:
		sketch := minwise.Build(cfg.MinwiseFamilySeed, cfg.MinwiseSize, keyset.FromKeys(held))
		return sketch.MarshalBinary()
	case protocol.SummaryART:
		tree := recon.Build(recon.DefaultParams, keyset.FromKeys(held))
		sum, err := tree.Summarize(recon.SummaryOptions{
			TotalBitsPerElement: artTotalBits,
			LeafBitsPerElement:  artLeafBits,
		})
		if err != nil {
			return nil, err
		}
		return sum.MarshalBinary()
	default:
		return nil, fmt.Errorf("strategy: cannot build summary for method %v", method)
	}
}

// ReceivedSummary is a peer's decoded working-set summary, whatever
// method the session negotiated.
type ReceivedSummary struct {
	Method protocol.SummaryMethod
	bloom  *bloom.Filter
	sketch *minwise.Sketch
	art    *recon.Summary
}

// ParseSummary decodes the payload of a SUMMARY/SUMMARY_REFRESH frame.
func ParseSummary(method protocol.SummaryMethod, blob []byte) (*ReceivedSummary, error) {
	rs := &ReceivedSummary{Method: method}
	switch method {
	case protocol.SummaryBloom:
		rs.bloom = new(bloom.Filter)
		if err := rs.bloom.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("strategy: bloom summary: %w", err)
		}
	case protocol.SummarySketch:
		rs.sketch = new(minwise.Sketch)
		if err := rs.sketch.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("strategy: sketch summary: %w", err)
		}
	case protocol.SummaryART:
		rs.art = new(recon.Summary)
		if err := rs.art.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("strategy: art summary: %w", err)
		}
	default:
		return nil, fmt.Errorf("strategy: cannot parse summary method %v", method)
	}
	return rs, nil
}

// ErrNothingUseful reports that, per the received summary, the receiver
// already holds everything the sender could offer — the sender should
// answer requests with empty batches rather than waste transmissions.
var ErrNothingUseful = errors.New("strategy: receiver appears to hold everything we have")

// Plan tests held — distinct ids of the sender's working set, any stretch
// of it — against the summary and returns, ascending, the positions in
// held of the symbols it reports missing at the receiver (§5.2 for Bloom,
// §5.3 for ART). A min-wise sketch (§4) names no symbol and so keeps every
// position, unless it estimates that the receiver's set contains held
// entirely. Plan returns ErrNothingUseful when the summary proves (or
// estimates) the receiver needs none of held. The positions are appended
// to keep[:0]; a keep with room for fewer than len(held) is replaced by
// one buffer of that size, so a caller that passes the last result back
// allocates nothing once it has one that fits.
func (rs *ReceivedSummary) Plan(held []uint64, keep []int) ([]int, error) {
	missing := func(id uint64) bool { return true }
	switch rs.Method {
	case protocol.SummaryBloom:
		missing = func(id uint64) bool { return !rs.bloom.Contains(id) }

	case protocol.SummaryART:
		tree := recon.Build(rs.art.Params, keyset.FromKeys(held))
		found, _ := tree.FindMissing(rs.art, artCorrection)
		missing = keyset.FromKeys(found).Contains

	case protocol.SummarySketch:
		mine := minwise.Build(rs.sketch.FamilySeed, len(rs.sketch.Minima), keyset.FromKeys(held))
		c, err := rs.sketch.ContainmentOf(mine)
		if err != nil {
			return nil, err
		}
		if c >= 1 && rs.sketch.SetSize >= len(held) {
			// The receiver's set contains ours entirely (as well as the
			// coarse estimate can tell): nothing to offer.
			return keep[:0], ErrNothingUseful
		}

	default:
		return nil, fmt.Errorf("strategy: no plan for summary method %v", rs.Method)
	}
	if cap(keep) < len(held) {
		keep = make([]int, 0, len(held))
	}
	keep = keep[:0]
	for i, id := range held {
		if missing(id) {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return keep, ErrNothingUseful
	}
	return keep, nil
}
