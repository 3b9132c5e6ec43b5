package icd_test

import (
	"bytes"
	"fmt"

	"icd"
)

// Estimating working-set overlap from single-packet sketches (§4).
func ExampleBuildSketch() {
	// Two peers whose working sets share exactly half their symbols.
	shared := icd.RandomWorkingSet(1, 1000)
	a, b := shared.Clone(), shared.Clone()
	extraA := icd.RandomWorkingSet(2, 1000)
	extraA.Each(func(k uint64) { a.Add(k) })
	extraB := icd.RandomWorkingSet(3, 1000)
	extraB.Each(func(k uint64) { b.Add(k) })

	sa := icd.BuildSketch(7, icd.DefaultSketchSize, a)
	sb := icd.BuildSketch(7, icd.DefaultSketchSize, b)
	r, _ := sa.Resemblance(sb)
	truth := a.Resemblance(b)
	fmt.Printf("estimate within 0.1 of truth: %v\n", r > truth-0.1 && r < truth+0.1)
	// Output:
	// estimate within 0.1 of truth: true
}

// Finding a peer's missing symbols with a Bloom filter summary (§5.2).
func ExampleBuildBloomFilter() {
	mine := icd.RandomWorkingSet(4, 5000)
	theirs := mine.Clone()
	newSymbols := icd.RandomWorkingSet(5, 60)
	newSymbols.Each(func(k uint64) { theirs.Add(k) })

	// I summarize my set; the peer probes its own symbols against it.
	summary := icd.BuildBloomFilter(9, mine, 8, 5)
	useful := summary.Missing(theirs)
	fmt.Printf("found at least 50 of the 60 new symbols: %v\n", len(useful) >= 50)
	fmt.Printf("no false transfers: %v\n", func() bool {
		for _, k := range useful {
			if mine.Contains(k) {
				return false
			}
		}
		return true
	}())
	// Output:
	// found at least 50 of the 60 new symbols: true
	// no false transfers: true
}

// Reconciling with an approximate reconciliation tree (§5.3).
func ExampleBuildReconTree() {
	base := icd.RandomWorkingSet(6, 10000)
	ahead := base.Clone()
	icd.RandomWorkingSet(7, 40).Each(func(k uint64) { ahead.Add(k) })

	summary, _ := icd.BuildReconTree(icd.DefaultReconParams, base).
		Summarize(icd.ReconSummaryOptions{TotalBitsPerElement: 8, LeafBitsPerElement: 5})
	found, stats := icd.BuildReconTree(icd.DefaultReconParams, ahead).FindMissing(summary, 4)

	fmt.Printf("found most of the 40 differences: %v\n", len(found) >= 30)
	fmt.Printf("visited far fewer nodes than the 10040 set size: %v\n", stats.NodesVisited < 6000)
	// Output:
	// found most of the 40 differences: true
	// visited far fewer nodes than the 10040 set size: true
}

// The §5.4.2 informed degree rule: blend more symbols as the peers'
// working sets converge.
func ExampleOptimalRecodeDegree() {
	for _, c := range []float64{0, 0.5, 0.9, 0.98} {
		fmt.Printf("containment %.2f → degree %d\n", c, icd.OptimalRecodeDegree(1000, c))
	}
	// Output:
	// containment 0.00 → degree 1
	// containment 0.50 → degree 2
	// containment 0.90 → degree 10
	// containment 0.98 → degree 50
}

// Decoding with the peeling decoder (§5.4.1) and taking the content
// without a final copy: the decoder writes each recovered block straight
// into one content buffer, and Content returns it.
func ExampleDecoder_Content() {
	content := []byte("informed content delivery across adaptive overlay networks")
	blocks, origLen, _ := icd.SplitIntoBlocks(content, 8)
	code, _ := icd.NewCode(len(blocks), nil, 0xC0DE)
	enc, _ := icd.NewEncoder(code, blocks, 1)

	dec, _ := icd.NewDecoder(code, 8)
	for !dec.Done() {
		// The decoder reads the payload in place and may keep it until
		// decoding ends, so it is not handed back to the encoder.
		dec.AddSymbol(enc.Next())
	}
	got, _ := dec.Content(origLen)
	fmt.Println(string(got))
	// Output:
	// informed content delivery across adaptive overlay networks
}

// The §5.4.2 recoding round-trip: a partial sender blends its encoded
// symbols into recoded symbols; the receiver peels them back into the
// encoded symbols themselves with the one-level-up substitution rule.
func ExampleNewRecoder() {
	// The sender holds 200 encoded symbols of some content.
	held := icd.RandomWorkingSet(3, 200)
	payloads := make(map[uint64][]byte)
	held.Each(func(id uint64) {
		p := make([]byte, 64)
		for i := range p {
			p[i] = byte(id) + byte(i)
		}
		payloads[id] = p
	})

	rec, _ := icd.NewRecoder(7, held, icd.RecoderOptions{Payloads: payloads})
	dec := icd.NewRecodeDecoder(true)
	sent := 0
	for dec.KnownCount() < held.Len() && sent < 20*held.Len() {
		sym := rec.Next(icd.CoverageAdaptive, 0)
		dec.Add(sym)
		rec.Release(sym) // Add copies; the recoder's buffers come back
		sent++
	}

	ok := true
	held.Each(func(id uint64) {
		if !bytes.Equal(dec.Payload(id), payloads[id]) {
			ok = false
		}
	})
	fmt.Printf("recovered all %d encoded symbols intact: %v\n", dec.KnownCount(), ok)
	// Output:
	// recovered all 200 encoded symbols intact: true
}

// Simulating one §6.3 transfer: a partial sender at correlation 0.2
// serving a receiver with Bloom-informed recoding.
func ExampleRunTransfer() {
	recv, send, _ := icd.TwoPeerScenario(42, 1000, icd.CompactStretch, 0.2)
	res, _ := icd.RunTransfer(icd.TransferConfig{
		Receiver: recv,
		Senders:  []icd.SenderSpec{{Set: send, Kind: icd.RecodeBF}},
		Target:   icd.TransferTarget(1000),
		Seed:     1,
	})
	fmt.Printf("completed: %v\n", res.Completed)
	fmt.Printf("overhead below 2: %v\n", res.Overhead() < 2)
	// Output:
	// completed: true
	// overhead below 2: true
}
