package experiment

import (
	"fmt"

	"icd/internal/fountain"
	"icd/internal/prng"
	"icd/internal/strategy"
	"icd/internal/transfer"
)

// correlationAxis returns the x-axis of a §6.3 figure panel: correlations
// from 0 to just under the scenario's feasibility bound, mirroring the
// paper's printed ranges (compact: 0–0.45, stretched: 0–0.25).
func correlationAxis(stretch float64, points int) []float64 {
	max := transfer.MaxTwoPeerCorrelation(stretch)
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = max * float64(i) / float64(points)
	}
	return xs
}

func stretchOf(compact bool) (float64, string) {
	if compact {
		return transfer.CompactStretch, "compact (1.1n distinct symbols)"
	}
	return transfer.StretchedStretch, "stretched (1.5n distinct symbols)"
}

// Fig5 reproduces Figure 5: overhead of peer-to-peer transfers between
// one receiver and one partial sender, for all five §6.2 strategies, as
// working-set correlation varies.
func Fig5(o Options, compact bool) (Figure, error) {
	o = o.withDefaults()
	stretch, label := stretchOf(compact)
	id := "fig5a"
	if !compact {
		id = "fig5b"
	}
	fig := Figure{
		ID:     id,
		Title:  "Overhead of peer-to-peer transfers, " + label,
		XLabel: "correlation",
		YLabel: "overhead",
		X:      correlationAxis(stretch, 8),
	}
	for _, k := range strategy.AllKinds {
		fig.Series = append(fig.Series, Series{Label: k.String()})
	}
	rng := prng.New(o.Seed)
	for _, corr := range fig.X {
		for si, kind := range strategy.AllKinds {
			var sum float64
			for tr := 0; tr < o.Trials; tr++ {
				recv, send, err := transfer.TwoPeerScenario(rng.Split(), o.N, stretch, corr)
				if err != nil {
					return Figure{}, err
				}
				res, err := transfer.Run(transfer.Config{
					Receiver: recv,
					Senders:  []transfer.SenderSpec{{Set: send, Kind: kind}},
					Target:   transfer.Target(o.N),
					Seed:     rng.Uint64(),
				})
				if err != nil {
					return Figure{}, err
				}
				sum += res.Overhead()
			}
			fig.Series[si].Y = append(fig.Series[si].Y, sum/float64(o.Trials))
		}
	}
	return fig, nil
}

// Fig6 reproduces Figure 6: speedup of a receiver downloading from a full
// sender and a partial sender concurrently, relative to the full sender
// alone.
func Fig6(o Options, compact bool) (Figure, error) {
	o = o.withDefaults()
	stretch, label := stretchOf(compact)
	id := "fig6a"
	if !compact {
		id = "fig6b"
	}
	fig := Figure{
		ID:     id,
		Title:  "Speedup with a full and a partial sender, " + label,
		XLabel: "correlation",
		YLabel: "speedup",
		X:      correlationAxis(stretch, 8),
	}
	for _, k := range strategy.AllKinds {
		fig.Series = append(fig.Series, Series{Label: k.String()})
	}
	rng := prng.New(o.Seed + 6)
	for _, corr := range fig.X {
		for si, kind := range strategy.AllKinds {
			var sum float64
			for tr := 0; tr < o.Trials; tr++ {
				recv, send, err := transfer.TwoPeerScenario(rng.Split(), o.N, stretch, corr)
				if err != nil {
					return Figure{}, err
				}
				target := transfer.Target(o.N)
				res, err := transfer.Run(transfer.Config{
					Receiver: recv,
					Senders: []transfer.SenderSpec{
						{Full: true},
						{Set: send, Kind: kind},
					},
					Target: target,
					Seed:   rng.Uint64(),
				})
				if err != nil {
					return Figure{}, err
				}
				sum += transfer.Speedup(res, transfer.RunBaselineFullSender(recv, target))
			}
			fig.Series[si].Y = append(fig.Series[si].Y, sum/float64(o.Trials))
		}
	}
	return fig, nil
}

// FigParallel reproduces Figures 7 and 8: relative transfer rates using
// two or four partial senders, compared with a single full sender.
func FigParallel(o Options, numSenders int, compact bool) (Figure, error) {
	o = o.withDefaults()
	stretch, label := stretchOf(compact)
	id := fmt.Sprintf("fig%d%s", 5+numSenders, map[bool]string{true: "a", false: "b"}[compact])
	// fig7 = 2 senders, fig8 = 4 senders.
	if numSenders == 2 {
		id = "fig7a"
		if !compact {
			id = "fig7b"
		}
	} else if numSenders == 4 {
		id = "fig8a"
		if !compact {
			id = "fig8b"
		}
	}
	// Feasibility: peer size s = stretch·n/(c + P(1−c)) ≤ n with
	// P = numSenders+1 peers; solve for the max correlation.
	// s ≤ n ⇔ c + P(1−c) ≥ stretch ⇔ c ≤ (P − stretch)/(P − 1).
	peers := float64(numSenders + 1)
	maxCorr := (peers - stretch) / (peers - 1)
	if maxCorr > 0.5 {
		maxCorr = 0.5 // paper's plotted range tops out at 0.5
	}
	const points = 8
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = maxCorr * float64(i) / float64(points)
	}
	fig := Figure{
		ID:     id,
		Title:  fmt.Sprintf("Relative rate with %d partial senders, %s", numSenders, label),
		XLabel: "correlation",
		YLabel: "relative rate",
		X:      xs,
	}
	for _, k := range strategy.AllKinds {
		fig.Series = append(fig.Series, Series{Label: k.String()})
	}
	rng := prng.New(o.Seed + uint64(100*numSenders))
	for _, corr := range fig.X {
		for si, kind := range strategy.AllKinds {
			var sum float64
			for tr := 0; tr < o.Trials; tr++ {
				recv, senders, err := transfer.MultiPeerScenario(rng.Split(), o.N, stretch, corr, numSenders)
				if err != nil {
					return Figure{}, err
				}
				specs := make([]transfer.SenderSpec, len(senders))
				for i, s := range senders {
					specs[i] = transfer.SenderSpec{Set: s, Kind: kind}
				}
				target := transfer.Target(o.N)
				res, err := transfer.Run(transfer.Config{
					Receiver: recv,
					Senders:  specs,
					Target:   target,
					Seed:     rng.Uint64(),
				})
				if err != nil {
					return Figure{}, err
				}
				sum += transfer.Speedup(res, transfer.RunBaselineFullSender(recv, target))
			}
			fig.Series[si].Y = append(fig.Series[si].Y, sum/float64(o.Trials))
		}
	}
	return fig, nil
}

// CodingParameters reproduces the §6.1 code measurements (E11): the
// degree distribution's average degree and the empirical decoding
// overhead, at the experiment scale and at the paper's 23,968 blocks.
func CodingParameters(o Options) (Table, error) {
	o = o.withDefaults()
	tab := Table{
		ID:     "coding",
		Title:  "Sparse parity-check code parameters (paper §6.1: avg degree 11, overhead 6.8%)",
		Header: []string{"blocks", "distribution", "mean degree", "measured overhead", "trials"},
	}
	rng := prng.New(o.Seed + 11)
	for _, n := range []int{o.N, fountain.PaperBlockCount} {
		dist := fountain.DefaultEncoding(n)
		code, err := fountain.NewCode(n, dist, o.Seed)
		if err != nil {
			return Table{}, err
		}
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = []byte{byte(i)}
		}
		trials := o.Trials
		if n >= fountain.PaperBlockCount {
			trials = 2 // large-scale decode is expensive; 2 suffices for the table
		}
		var overhead float64
		for t := 0; t < trials; t++ {
			enc, err := fountain.NewEncoder(code, blocks, rng.Uint64())
			if err != nil {
				return Table{}, err
			}
			dec, err := fountain.NewDecoder(code, 1)
			if err != nil {
				return Table{}, err
			}
			for i := 0; !dec.Done(); i++ {
				if i > 3*n {
					return Table{}, fmt.Errorf("decoder stalled at n=%d", n)
				}
				// AddSymbol may keep the payload until decoding ends, so it
				// is not handed back to the encoder.
				if _, err := dec.AddSymbol(enc.Next()); err != nil {
					return Table{}, err
				}
			}
			overhead += dec.Overhead()
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", n),
			dist.Name(),
			fmt.Sprintf("%.2f", dist.Mean()),
			fmt.Sprintf("%.2f%%", 100*overhead/float64(trials)),
			fmt.Sprintf("%d", trials),
		})
	}
	return tab, nil
}
