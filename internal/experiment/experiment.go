// Package experiment regenerates every table and figure of the paper's
// evaluation (Figure 1, §5.3's Figure 4 and Table 4, §6.3's Figures 5–8)
// plus the coding-parameter measurements of §6.1. Each experiment returns
// plain row/series structures that cmd/icdbench renders as text tables
// and the root bench_test.go reports as benchmark metrics.
//
// A driver lives here iff it regenerates a figure or table of the paper;
// the one exception is lab, the only command-line entry to a 100/1000
// node swarm. Speed measurements of the engine are not experiments: they
// are rows of the benchmark in bench/ (`bash bench/run.sh`).
//
// The paper experiments are deterministic given Options.Seed.
package experiment

import (
	"fmt"
	"strings"
)

// Options scale an experiment run. Zero values select defaults sized for
// a laptop-class machine (minutes for the full suite).
type Options struct {
	// N is the number of source blocks in transfer experiments
	// (default 2000; the paper used 23,968 — shapes are scale-stable).
	N int
	// Trials per data point (default 5).
	Trials int
	// SetSize for reconciliation experiments (default 10000).
	SetSize int
	// Diffs is the number of differences planted in reconciliation
	// experiments (default 100).
	Diffs int
	// Seed drives all randomness (default 1).
	Seed uint64
	// LabMax caps the lab experiment's node counts (0 = the canonical
	// 100 and 1000; see LabSizes).
	LabMax int
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 2000
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.SetSize == 0 {
		o.SetSize = 10000
	}
	if o.Diffs == 0 {
		o.Diffs = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figure is an x/y multi-series result (one paper figure panel).
type Figure struct {
	ID     string // e.g. "fig5a"
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Series is one labeled curve.
type Series struct {
	Label string
	Y     []float64
}

// Table is a labeled grid result (one paper table).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render produces an aligned text rendering of the table.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Render produces a text rendering of the figure: one row per x value,
// one column per series — the same rows the paper plots.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %12s", s.Label)
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%-12.3f", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "  %12.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "  %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Registry maps experiment ids to runners, for cmd/icdbench.
type Runner struct {
	ID          string
	Description string
	Run         func(Options) (fmt.Stringer, error)
}

type stringerFigure struct{ Figure }
type stringerTable struct{ Table }

func (s stringerFigure) String() string { return s.Figure.Render() }
func (s stringerTable) String() string  { return s.Table.Render() }

// Registry returns all experiment runners, sorted by id.
func Registry() []Runner {
	return []Runner{
		{"coding", "sparse-code parameters: mean degree, decode overhead (§6.1)", func(o Options) (fmt.Stringer, error) {
			t, err := CodingParameters(o)
			return stringerTable{t}, err
		}},
		{"fig1", "tree vs parallel vs collaborative delivery (Figure 1)", func(o Options) (fmt.Stringer, error) {
			t, err := Fig1(o)
			return stringerTable{t}, err
		}},
		{"fig4a", "ART accuracy vs leaf-filter bit share (Figure 4a)", func(o Options) (fmt.Stringer, error) {
			f, err := Fig4a(o)
			return stringerFigure{f}, err
		}},
		{"fig5a", "peer-to-peer overhead, compact (Figure 5a)", func(o Options) (fmt.Stringer, error) {
			f, err := Fig5(o, true)
			return stringerFigure{f}, err
		}},
		{"fig5b", "peer-to-peer overhead, stretched (Figure 5b)", func(o Options) (fmt.Stringer, error) {
			f, err := Fig5(o, false)
			return stringerFigure{f}, err
		}},
		{"fig6a", "full+partial sender speedup, compact (Figure 6a)", func(o Options) (fmt.Stringer, error) {
			f, err := Fig6(o, true)
			return stringerFigure{f}, err
		}},
		{"fig6b", "full+partial sender speedup, stretched (Figure 6b)", func(o Options) (fmt.Stringer, error) {
			f, err := Fig6(o, false)
			return stringerFigure{f}, err
		}},
		{"fig7a", "2 partial senders relative rate, compact (Figure 7a)", func(o Options) (fmt.Stringer, error) {
			f, err := FigParallel(o, 2, true)
			return stringerFigure{f}, err
		}},
		{"fig7b", "2 partial senders relative rate, stretched (Figure 7b)", func(o Options) (fmt.Stringer, error) {
			f, err := FigParallel(o, 2, false)
			return stringerFigure{f}, err
		}},
		{"fig8a", "4 partial senders relative rate, compact (Figure 8a)", func(o Options) (fmt.Stringer, error) {
			f, err := FigParallel(o, 4, true)
			return stringerFigure{f}, err
		}},
		{"fig8b", "4 partial senders relative rate, stretched (Figure 8b)", func(o Options) (fmt.Stringer, error) {
			f, err := FigParallel(o, 4, false)
			return stringerFigure{f}, err
		}},
		{"lab", "thousand-node scenario lab: convergence, fairness, origin offload at 100/1000 nodes", func(o Options) (fmt.Stringer, error) {
			t, err := Lab(o)
			return stringerTable{t}, err
		}},
		{"tab4b", "ART accuracy by bits/element and correction (Table 4b)", func(o Options) (fmt.Stringer, error) {
			t, err := Table4b(o)
			return stringerTable{t}, err
		}},
		{"tab4c", "Bloom filter vs ART structure comparison (Table 4c)", func(o Options) (fmt.Stringer, error) {
			t, err := Table4c(o)
			return stringerTable{t}, err
		}},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids, in Registry (sorted) order.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	return ids
}
