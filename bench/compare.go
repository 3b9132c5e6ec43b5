package main

// compare.go applies the benchmark's own bounds to two sets of result
// files: for every (end-to-end metric, workload) pair the new side's
// median may be worse than the base's by at most the metric's bound. The
// watched per-layer metrics are printed beside them without a verdict.
// Each side is one result file or a comma-separated list of them (runs
// of one commit); with two or more runs on a side the run-to-run spread
// is known, and a pair whose spread is wider than its bound is reported
// unresolved rather than unchanged.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// loadSide reads a comma-separated list of result files and returns
// workload → metric → one value per file.
func loadSide(list string) (map[string]map[string][]float64, error) {
	side := make(map[string]map[string][]float64)
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res runResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, wr := range res.Workloads {
			name := wr.Params.Name
			if side[name] == nil {
				side[name] = make(map[string][]float64)
			}
			for metric, v := range wr.Values {
				side[name][metric] = append(side[name][metric], v)
			}
		}
	}
	return side, nil
}

// spread is the distance between the first and third quartile as a
// share of the median (Python's statistics.quantiles(n=4), so the
// driver and this tool agree); NaN below two values.
func spread(vals []float64) float64 {
	m := len(vals)
	if m < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quantile := func(p float64) float64 {
		pos := p * float64(m+1)
		idx := min(max(int(pos), 1), m-1)
		return s[idx-1] + (pos-float64(idx))*(s[idx]-s[idx-1])
	}
	return (quantile(0.75) - quantile(0.25)) / math.Abs(quantile(0.50))
}

// runCompare prints one block per workload and returns the exit code: 0
// when nothing regressed and nothing is unresolved.
func runCompare(baseList, newList string) int {
	base, err := loadSide(baseList)
	if err != nil {
		fatal("%v", err)
	}
	cand, err := loadSide(newList)
	if err != nil {
		fatal("%v", err)
	}
	bad := 0
	for _, w := range workloads() {
		b, c := base[w.Name], cand[w.Name]
		if b == nil || c == nil {
			continue
		}
		fmt.Printf("== %s\n", w.Name)
		tally := make(map[string]int)
		row := func(d metricDef, gated bool) {
			bv, cv := b[d.Name], c[d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				if gated {
					fmt.Printf("  %-24s missing on one side\n", d.Name)
					tally["unresolved"]++
				}
				return
			}
			bm, cm := percentile(bv, 0.5), percentile(cv, 0.5)
			if bm == 0 {
				return // an ungated metric that does not apply to this workload
			}
			// worse > 0: the new side moved the wrong way by that share of the base.
			worse := (cm - bm) / bm
			if d.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(bv), spread(cv)) // NaN (one run a side) never exceeds a bound
			verdict := "ungated"
			if gated {
				switch {
				case sp > d.Bound:
					verdict = "unresolved"
				case worse > d.Bound:
					verdict = "regressed"
				case worse < -d.Bound:
					verdict = "improved"
				default:
					verdict = "unchanged"
				}
				tally[verdict]++
			}
			note := "spread n/a (1 run)"
			if !math.IsNaN(sp) {
				note = fmt.Sprintf("spread %.1f%%", 100*sp)
			}
			if gated {
				note = fmt.Sprintf("bound %.0f%%, %s", 100*d.Bound, note)
			}
			fmt.Printf("  %-24s %12.6g -> %-12.6g %-6s %+7.2f%% worse (%s)  %s\n",
				d.Name, bm, cm, d.Unit, 100*worse, note, verdict)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		for _, d := range perLayer {
			if slices.Contains(watched, d.Name) {
				row(d, false)
			}
		}
		fmt.Printf("  %s: %d improved, %d unchanged, %d regressed, %d unresolved\n", w.Name,
			tally["improved"], tally["unchanged"], tally["regressed"], tally["unresolved"])
		bad += tally["regressed"] + tally["unresolved"]
	}
	if bad > 0 {
		return 1
	}
	return 0
}
