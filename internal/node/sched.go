package node

// sched.go is the cross-content scheduling policy: pure functions
// dividing the node's global budgets across its concurrent fetches by
// marginal utility. Two budgets share one apportionment: connection
// slots (how many sessions a fetch may run) and, since PR 9, credit
// windows (how many symbol frames a fetch's channels may keep in
// flight on the shared fabric wires). Every active fetch keeps a floor
// share (a fetch with zero slots winds itself down, and a channel with
// zero window cannot move); the rest goes where it buys the most
// throughput — proportionally to each fetch's recent progress rate —
// while starved fetches (no measurable progress, so a bigger share of
// the same peers buys nothing) and near-complete fetches (the decode
// tail needs few fresh symbols) yield their share to fast-moving
// transfers. Keeping the policy pure functions makes it table-testable
// without a swarm.

// minChannelWindow is the per-fetch floor of a window apportionment, in
// symbol frames: even a yielding fetch keeps enough window that one
// round-trip of symbols is always in flight, so its sessions measure
// progress instead of starving into a false "stalled" verdict.
const minChannelWindow = 16

// fetchSignal is one active fetch's scheduling inputs, sampled by the
// node's housekeeping tick.
type fetchSignal struct {
	rate         float64 // recent decode progress, symbols/sec
	nearComplete bool    // working set ≥ the source-block count: decode tail
	starved      bool    // no recent progress: extra slots buy nothing
}

// yielding reports whether the fetch should give up its share of the
// extra budget.
func (f fetchSignal) yielding() bool { return f.nearComplete || f.starved }

// allocateSlots divides `total` connection slots across the given
// fetches: one guaranteed slot each (total is effectively raised to the
// fetch count when smaller — a fetch with zero slots would wind down,
// not wait), the rest proportionally to progress rate.
func allocateSlots(total int, sigs []fetchSignal) []int {
	return apportion(total, 1, sigs)
}

// allocateWindows divides a node-wide credit-window budget (symbol
// frames) across the fetches, minChannelWindow guaranteed each — the
// utility-sized windows the rebalance pushes down to every fetch's
// fabric channels.
func allocateWindows(budget int, sigs []fetchSignal) []int {
	return apportion(budget, minChannelWindow, sigs)
}

// apportion divides `total` units across the fetches: `floor` units
// guaranteed each (total is effectively raised to nf·floor when
// smaller), the rest proportionally to progress rate with
// largest-remainder rounding. Yielding fetches weigh zero; when no
// fetch has a usable rate the extra spreads evenly across the
// non-yielding fetches — a starved or near-complete fetch never absorbs
// fallback share while a fresh sibling could use it — and across
// everyone only when every fetch yields (all stalled). The result is
// index-aligned with sigs and deterministic.
func apportion(total, floor int, sigs []fetchSignal) []int {
	nf := len(sigs)
	if nf == 0 {
		return nil
	}
	shares := make([]int, nf)
	for i := range shares {
		shares[i] = floor
	}
	extra := total - nf*floor
	if extra <= 0 {
		return shares
	}
	weights := make([]float64, nf)
	sum := 0.0
	for i, sig := range sigs {
		if !sig.yielding() && sig.rate > 0 {
			weights[i] = sig.rate
			sum += sig.rate
		}
	}
	if sum == 0 {
		// No rate signal to differentiate on. Startup fetches (not yet
		// measured) still deserve the budget; yielding fetches have told
		// us more buys nothing, so they are excluded unless everyone is
		// yielding. Earlier fetches absorb the remainder.
		elig := make([]int, 0, nf)
		for i, sig := range sigs {
			if !sig.yielding() {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			for i := range sigs {
				elig = append(elig, i)
			}
		}
		for j := 0; extra > 0; j = (j + 1) % len(elig) {
			shares[elig[j]]++
			extra--
		}
		return shares
	}
	// Largest-remainder apportionment of the extra by rate.
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, nf)
	assigned := 0
	for i, w := range weights {
		exact := float64(extra) * w / sum
		whole := int(exact)
		shares[i] += whole
		assigned += whole
		rems[i] = rem{idx: i, frac: exact - float64(whole)}
	}
	// Stable selection: biggest fractional remainder first, index as the
	// deterministic tie-break.
	for assigned < extra {
		best := -1
		for i, r := range rems {
			if r.idx < 0 {
				continue
			}
			if best < 0 || r.frac > rems[best].frac {
				best = i
			}
		}
		if best < 0 {
			break
		}
		shares[rems[best].idx]++
		rems[best].idx = -1
		assigned++
	}
	return shares
}
