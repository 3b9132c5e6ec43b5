// Reconciliation walks the paper's estimation and reconciliation toolbox
// on two synthetic working sets, mirroring Figures 2 and 3:
//
//  1. min-wise sketches estimate the resemblance from 1KB of data (§4);
//  2. a Bloom filter finds most of the difference with 8 bits/element (§5.2);
//  3. an approximate reconciliation tree finds the difference with
//     O(d log n) search work (§5.3).
package main

import (
	"fmt"
	"log"

	"icd"
)

func main() {
	// Two peers: B holds everything A holds plus 150 newer symbols —
	// the "receivers with higher transfer rates simply have more content"
	// situation of §2.1.
	const n = 20000
	setA := icd.RandomWorkingSet(1, n)
	setB := setA.Clone()
	extra := icd.RandomWorkingSet(2, 150)
	extra.Each(func(k uint64) { setB.Add(k) })

	fmt.Printf("peer A: %d symbols, peer B: %d symbols, true difference: %d\n",
		setA.Len(), setB.Len(), setB.Diff(setA).Len())

	// --- §4: coarse estimation from one packet ---
	skA := icd.BuildSketch(7, icd.DefaultSketchSize, setA)
	skB := icd.BuildSketch(7, icd.DefaultSketchSize, setB)
	r, err := skA.Resemblance(skB)
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := skA.MarshalBinary()
	fmt.Printf("\nmin-wise sketch (%d bytes on the wire):\n", len(blob))
	fmt.Printf("  estimated resemblance %.4f (truth %.4f)\n", r, setA.Resemblance(setB))
	c, _ := skA.ContainmentOf(skB)
	fmt.Printf("  estimated containment |A∩B|/|B| = %.4f → useful fraction %.4f\n", c, 1-c)

	// --- §5.2: Bloom filter reconciliation ---
	bf := icd.BuildBloomFilter(9, setA, 8, 5)
	missing := bf.Missing(setB)
	fmt.Printf("\nbloom filter (8 bits/elem, 5 hashes, fp≈%.1f%%):\n", 100*bf.FalsePositiveRate())
	fmt.Printf("  B finds %d of %d missing symbols by probing all %d of its symbols\n",
		len(missing), setB.Diff(setA).Len(), setB.Len())

	// --- §5.3: approximate reconciliation tree ---
	treeA := icd.BuildReconTree(icd.DefaultReconParams, setA)
	treeB := icd.BuildReconTree(icd.DefaultReconParams, setB)
	sum, err := treeA.Summarize(icd.ReconSummaryOptions{
		TotalBitsPerElement: 8,
		LeafBitsPerElement:  4,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, corr := range []int{0, 2, 5} {
		found, stats := treeB.FindMissing(sum, corr)
		fmt.Printf("\nART correction=%d: found %d/%d differences visiting %d tree nodes (vs %d bloom probes)\n",
			corr, len(found), setB.Diff(setA).Len(), stats.NodesVisited, setB.Len())
	}
}
