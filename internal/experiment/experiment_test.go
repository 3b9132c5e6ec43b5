package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// quick returns options small enough for unit tests.
func quick() Options {
	return Options{N: 400, Trials: 2, SetSize: 2000, Diffs: 40, Seed: 7}
}

func TestFig4aShape(t *testing.T) {
	fig, err := Fig4a(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.X) != 7 || len(fig.Series) != 6 {
		t.Fatalf("axes wrong: %d x, %d series", len(fig.X), len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(fig.X) {
			t.Fatalf("series %s has %d points", s.Label, len(s.Y))
		}
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("accuracy %v outside [0,1]", y)
			}
		}
	}
	// Correction 5 (first series) must dominate correction 0 (last) at
	// every split — the Figure 4(a) ordering.
	c5, c0 := fig.Series[0], fig.Series[5]
	for i := range fig.X {
		if c5.Y[i]+1e-9 < c0.Y[i] {
			t.Fatalf("correction 5 (%v) below correction 0 (%v) at x=%v", c5.Y[i], c0.Y[i], fig.X[i])
		}
	}
	if !strings.Contains(fig.Render(), "correction=5") {
		t.Fatal("render missing series label")
	}
}

func TestTable4bShape(t *testing.T) {
	tab, err := Table4b(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 correction levels", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 5 {
			t.Fatalf("row width %d", len(row))
		}
	}
	// More bits must not hurt at fixed correction (row-wise monotone,
	// within noise): compare 2 bits vs 8 bits at correction 5.
	last := tab.Rows[5]
	var lo, hi float64
	if _, err := fmtSscan(last[1], &lo); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last[4], &hi); err != nil {
		t.Fatal(err)
	}
	if hi < lo {
		t.Fatalf("8 bits (%v) worse than 2 bits (%v) at correction 5", hi, lo)
	}
	if !strings.Contains(tab.Render(), "Correction") {
		t.Fatal("render missing header")
	}
}

func TestTable4cMeasure(t *testing.T) {
	// Table 4(c) is a scale claim: run it at the paper-like n = 10000
	// where the Θ(n) Bloom sweep clearly exceeds the O(d log n) ART walk.
	o := quick()
	o.SetSize = 10000
	res, err := Table4cMeasure(o)
	if err != nil {
		t.Fatal(err)
	}
	// Bloom at 8 bits/elem must be the accuracy leader (≈98%); ART trades
	// accuracy for search locality (paper: 92% vs 98%).
	if res.BloomAccuracy < 0.9 {
		t.Fatalf("bloom accuracy %.3f", res.BloomAccuracy)
	}
	if res.ARTAccuracy < 0.6 || res.ARTAccuracy > 1 {
		t.Fatalf("ART accuracy %.3f", res.ARTAccuracy)
	}
	if res.BloomAccuracy < res.ARTAccuracy-0.05 {
		t.Fatalf("bloom (%.3f) should not trail ART (%.3f)", res.BloomAccuracy, res.ARTAccuracy)
	}
	// The structural claim: ART search touches far fewer nodes than the
	// Bloom filter's n probes.
	if res.ARTNodesVisited >= res.BloomProbes {
		t.Fatalf("ART visited %d nodes vs bloom %d probes — not O(d log n)",
			res.ARTNodesVisited, res.BloomProbes)
	}
	tab, err := Table4c(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig5Shapes(t *testing.T) {
	fig, err := Fig5(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	byLabel := map[string][]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Y
		for _, y := range s.Y {
			if y < 1 {
				t.Fatalf("%s overhead %v < 1", s.Label, y)
			}
		}
	}
	rand := byLabel["Random"]
	// Coupon-collector growth: Random at max correlation well above at 0.
	if rand[len(rand)-1] < rand[0]*1.2 {
		t.Fatalf("Random overhead not rising with correlation: %v", rand)
	}
	// Recode/BF below Random everywhere.
	recBF := byLabel["Recode/BF"]
	for i := range rand {
		if recBF[i] >= rand[i] {
			t.Fatalf("Recode/BF (%v) not below Random (%v) at x=%v", recBF[i], rand[i], fig.X[i])
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := Fig6(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 0.9 || y > 2.01 {
				t.Fatalf("%s speedup %v at x=%v outside [1,2]", s.Label, y, fig.X[i])
			}
		}
	}
}

func TestFigParallelShapes(t *testing.T) {
	fig, err := FigParallel(quick(), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig7a" {
		t.Fatalf("id = %s", fig.ID)
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if y > 2.01 {
				t.Fatalf("%s relative rate %v exceeds sender count 2", s.Label, y)
			}
		}
	}
	fig8, err := FigParallel(quick(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if fig8.ID != "fig8b" {
		t.Fatalf("id = %s", fig8.ID)
	}
}

func TestCodingParametersTable(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale decode is slow")
	}
	o := quick()
	tab, err := CodingParameters(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig1Table(t *testing.T) {
	tab, err := Fig1(Options{N: 300, Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 configs × 2 modes)", len(tab.Rows))
	}
	if strings.Contains(tab.Render(), "DNF") {
		t.Fatalf("a Figure 1 configuration did not complete:\n%s", tab.Render())
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"coding", "fig1", "fig4a", "fig5a", "fig5b", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig8a", "fig8b", "lab", "tab4b", "tab4c",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := Lookup("fig5a"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup found nonsense")
	}
}

// fmtSscan parses a float cell.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscanf(s, "%f", out)
}
