package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestManifestInLockStep fails when /BENCHMARK.json and catalog.go (or a
// workload's name or rationale) drift apart; regenerate the file with
// `bash bench/run.sh -manifest > BENCHMARK.json`.
func TestManifestInLockStep(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	fromCode, err := json.Marshal(benchmarkManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fromCode, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the code's manifest; regenerate it with -manifest")
	}
	for _, w := range workloads() {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestToyRunEmitsEveryMetric runs every workload traced at toy size and
// checks that each name in the catalog comes out finite and with the
// catalog's unit, through the same line the driver reads. No wall-clock
// thresholds: only that the numbers exist.
func TestToyRunEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	res, err := runAll(config{seed: 1, trace: true, toy: true, outDir: out}, workloads())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads()) {
		t.Fatalf("%d workload rows, want %d", len(res.Workloads), len(workloads()))
	}
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	for _, wr := range res.Workloads {
		name := wr.Params.Name
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			var l line
			if err := json.Unmarshal([]byte(driverLine(wr, traced)), &l); err != nil {
				t.Fatalf("%s: driver line: %v", name, err)
			}
			if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", name, l.Correct, l.Attempted, l.Failed)
			}
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s: traced=%v line has %d metrics, the catalog %d", name, traced, len(l.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := l.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s missing or not finite", name, d.Name)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
			}
		}
	}

	// The trace nests: every child inside its parent, one id per fetch.
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	fetchRoots := make(map[int]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "fetch" {
			fetchRoots[s.Fetch]++
		}
	}
	if len(fetchRoots) == 0 {
		t.Fatal("trace has no fetch spans")
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Fetch != p.Fetch {
				t.Errorf("span %d (%s) does not nest in parent %d", s.ID, s.Name, s.Parent)
			}
		}
	}
	for id, n := range fetchRoots {
		if n != 1 {
			t.Errorf("fetch id %d has %d root spans", id, n)
		}
	}
	for _, w := range workloads() {
		for _, f := range []string{w.Name + ".cpu.pprof", w.Name + ".allocs.pprof"} {
			if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
				t.Errorf("profile %s missing or empty", f)
			}
		}
	}
}
