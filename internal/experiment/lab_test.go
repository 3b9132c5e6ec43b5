package experiment

// lab_test.go pins the scenario-lab experiment: size capping and a
// small end-to-end run of all three presets with a leak-checked
// teardown. What a run measures (offload, spread, churn, the swarm
// time-series) is asserted where it is produced, in internal/scenario.

import (
	"testing"

	"icd/internal/testutil"
)

func TestLabSizes(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{0, []int{100, 1000}},
		{1000, []int{100, 1000}},
		{999, []int{100}},
		{100, []int{100}},
		{20, []int{20}},
	}
	for _, tc := range cases {
		got := LabSizes(tc.max)
		if len(got) != len(tc.want) {
			t.Fatalf("LabSizes(%d) = %v, want %v", tc.max, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("LabSizes(%d) = %v, want %v", tc.max, got, tc.want)
			}
		}
	}
}

func TestLabSmallRunAllPresets(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	tbl, err := Lab(Options{Seed: 5, LabMax: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || tbl.ID != "lab" {
		t.Fatalf("expected one row per preset, got: %+v", tbl)
	}
	for _, row := range tbl.Rows {
		if row[1] != "20" || row[2] != "true" {
			t.Fatalf("scenario %q: want 20 nodes converged, got %v", row[0], row)
		}
	}
}
