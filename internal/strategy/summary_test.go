package strategy

import (
	"errors"
	"slices"
	"testing"

	"icd/internal/keyset"
	"icd/internal/prng"
	"icd/internal/protocol"
)

// twoSets builds a sender set containing the receiver set plus extras,
// so the true missing-set is exactly the extras.
func twoSets(seed uint64, common, extra int) (receiver, sender *keyset.Set, extras []uint64) {
	rng := prng.New(seed)
	receiver = keyset.New(common)
	sender = keyset.New(common + extra)
	for receiver.Len() < common {
		k := rng.Uint64()
		receiver.Add(k)
		sender.Add(k)
	}
	for len(extras) < extra {
		k := rng.Uint64()
		if sender.Add(k) {
			extras = append(extras, k)
		}
	}
	return receiver, sender, extras
}

func roundTrip(t *testing.T, method protocol.SummaryMethod, held *keyset.Set) *ReceivedSummary {
	t.Helper()
	blob, err := BuildSummary(method, held.Keys())
	if err != nil {
		t.Fatalf("%v build: %v", method, err)
	}
	// Through the wire framing, as a session would send it.
	m, _, _, view, err := protocol.DecodeSummaryView(protocol.EncodeSummary(method, 0, 0, blob, false))
	if err != nil || m != method {
		t.Fatalf("%v frame round trip: method %v err %v", method, m, err)
	}
	rs, err := ParseSummary(m, view)
	if err != nil {
		t.Fatalf("%v parse: %v", method, err)
	}
	return rs
}

// planned resolves a plan's kept positions against the ids it was made
// over, checking they are positions of it in log order.
func planned(t *testing.T, keep []int, held []uint64) []uint64 {
	t.Helper()
	if !slices.IsSorted(keep) {
		t.Fatalf("kept positions not in log order: %v", keep)
	}
	ids := make([]uint64, len(keep))
	for i, pos := range keep {
		ids[i] = held[pos]
	}
	return ids
}

func TestBloomSummaryPlan(t *testing.T) {
	receiver, sender, extras := twoSets(1, 600, 120)
	rs := roundTrip(t, protocol.SummaryBloom, receiver)
	plan, err := rs.Plan(sender.Keys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Soundness: Bloom false positives can only *suppress* missing
	// symbols, never admit held ones, so every domain element must be
	// genuinely missing at the receiver.
	domain := planned(t, plan, sender.Keys())
	for _, id := range domain {
		if receiver.Contains(id) {
			t.Fatalf("domain contains receiver-held symbol %d", id)
		}
	}
	// Completeness up to the ~2% false-positive rate at 8 bits/element.
	if len(domain) < len(extras)*9/10 {
		t.Fatalf("domain %d of %d missing symbols", len(domain), len(extras))
	}
}

func TestARTSummaryPlan(t *testing.T) {
	receiver, sender, extras := twoSets(2, 2000, 60)
	rs := roundTrip(t, protocol.SummaryART, receiver)
	plan, err := rs.Plan(sender.Keys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	domain := planned(t, plan, sender.Keys())
	for _, id := range domain {
		if receiver.Contains(id) {
			t.Fatalf("domain contains receiver-held symbol %d", id)
		}
	}
	// ART completeness is approximate (Figure 4): expect most of the
	// planted difference at 8 bits/element with correction.
	if len(domain) < len(extras)/2 {
		t.Fatalf("ART found %d of %d missing symbols", len(domain), len(extras))
	}
}

func TestSketchSummaryPlan(t *testing.T) {
	receiver, sender, _ := twoSets(3, 3000, 1000)
	rs := roundTrip(t, protocol.SummarySketch, receiver)
	plan, err := rs.Plan(sender.Keys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if domain := planned(t, plan, sender.Keys()); !slices.Equal(domain, sender.Keys()) {
		t.Fatalf("sketch domain %d, want the whole set %d in log order", len(domain), sender.Len())
	}
}

func TestPlanNothingUseful(t *testing.T) {
	// Receiver holds a superset of the sender: every method must report
	// ErrNothingUseful rather than fabricate a domain.
	receiver, _, _ := twoSets(4, 800, 0)
	sender := receiver.Clone()
	for _, method := range []protocol.SummaryMethod{protocol.SummaryBloom, protocol.SummaryART} {
		rs := roundTrip(t, method, receiver)
		if _, err := rs.Plan(sender.Keys(), nil); !errors.Is(err, ErrNothingUseful) {
			t.Fatalf("%v: err = %v, want ErrNothingUseful", method, err)
		}
	}
	rs := roundTrip(t, protocol.SummarySketch, receiver)
	if _, err := rs.Plan(sender.Keys(), nil); !errors.Is(err, ErrNothingUseful) {
		t.Fatalf("sketch: err = %v, want ErrNothingUseful", err)
	}
}

func TestSummaryErrors(t *testing.T) {
	if _, err := BuildSummary(protocol.SummaryNone, []uint64{1, 2, 3}); err == nil {
		t.Error("built a 'none' summary")
	}
	if _, err := ParseSummary(protocol.SummaryBloom, []byte{1, 2}); err == nil {
		t.Error("parsed garbage bloom")
	}
	if _, err := ParseSummary(protocol.SummarySketch, []byte{1, 2}); err == nil {
		t.Error("parsed garbage sketch")
	}
	if _, err := ParseSummary(protocol.SummaryART, []byte{1, 2}); err == nil {
		t.Error("parsed garbage art")
	}
	if _, err := ParseSummary(protocol.SummaryNone, nil); err == nil {
		t.Error("parsed 'none' summary")
	}
}

// TestBloomPlanAllocs: a Bloom plan over 4096 ids allocates at most its
// one result buffer, and nothing once it is handed the last one back —
// what lets a partial sender re-aim its cursor without allocating.
func TestBloomPlanAllocs(t *testing.T) {
	receiver, sender, _ := twoSets(5, 2048, 2048)
	rs := roundTrip(t, protocol.SummaryBloom, receiver)
	held := sender.Keys()
	if avg := testing.AllocsPerRun(20, func() { rs.Plan(held, nil) }); avg > 1 {
		t.Errorf("a Bloom plan over %d ids allocates %.1f, want ≤ 1", len(held), avg)
	}
	keep, _ := rs.Plan(held, nil)
	if avg := testing.AllocsPerRun(20, func() { keep, _ = rs.Plan(held, keep) }); avg != 0 {
		t.Errorf("a Bloom plan into its last buffer allocates %.1f, want 0", avg)
	}
}
