package experiment

// lab.go is the thousand-node scenario lab (PR 7): the clean, lossy and
// churn presets of internal/scenario run at swarm scale over the
// shaped-link transport, reporting convergence time, completion
// fairness (p95/p50 spread) and origin offload at 100 and 1000 nodes.
// It regenerates no figure of the paper; it stays because it is the
// only command-line entry to a swarm of that size (`icdbench -exp lab`,
// CI's at-scale smoke runs it with `-labmax 100`).

import (
	"fmt"

	"icd/internal/scenario"
)

// LabSizes returns the node counts a lab run measures. maxNodes caps
// them (0 = no cap): a cap below the smallest canonical size runs one
// row at exactly the cap, so CI smokes stay cheap without losing the
// row entirely.
func LabSizes(maxNodes int) []int {
	canonical := []int{100, 1000}
	if maxNodes <= 0 {
		return canonical
	}
	var sizes []int
	for _, s := range canonical {
		if s <= maxNodes {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{maxNodes}
	}
	return sizes
}

// Lab runs every preset at every size LabSizes(o.LabMax) names and
// renders one row per run. A scenario that fails to converge (for its
// churn survivors) is an error: the lab's acceptance bar is convergence
// at scale.
func Lab(o Options) (Table, error) {
	o = o.withDefaults()
	t := Table{
		ID:     "lab",
		Title:  "thousand-node scenario lab: convergence, fairness, origin offload (shaped links)",
		Header: []string{"scenario", "nodes", "converged", "convergence", "p50", "p95", "spread", "offload", "churned"},
	}
	for _, nodes := range LabSizes(o.LabMax) {
		for i, name := range scenario.PresetNames() {
			spec, err := scenario.Preset(name, nodes, o.Seed+uint64(1000*i)+uint64(nodes))
			if err != nil {
				return t, err
			}
			res, err := scenario.Run(spec)
			if err != nil {
				return t, err
			}
			if !res.Converged {
				return t, fmt.Errorf("experiment: lab scenario %q at %d nodes did not converge (%d completed, %d failed, %d churned)",
					name, nodes, res.Completed, res.Failed, res.Churned)
			}
			t.Rows = append(t.Rows, []string{
				name,
				fmt.Sprintf("%d", res.Nodes),
				fmt.Sprintf("%v", res.Converged),
				fmt.Sprintf("%dms", res.Convergence.Milliseconds()),
				fmt.Sprintf("%dms", res.P50.Milliseconds()),
				fmt.Sprintf("%dms", res.P95.Milliseconds()),
				fmt.Sprintf("%.2f", res.Spread),
				fmt.Sprintf("%.2f", res.Offload),
				fmt.Sprintf("%d", res.Churned),
			})
		}
	}
	return t, nil
}
