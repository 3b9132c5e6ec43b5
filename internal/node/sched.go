package node

// sched.go is the node's one budget rule. Connection slots
// (Options.MaxConns) and session windows (Options.WindowBudget) are each
// split evenly among the fetches in flight, and only when that set
// changes: rebalance runs from StartFetch and finishFetch, never on the
// housekeeping tick.

// share is fetch i's part of total units split among nf fetches in start
// order: total/nf each, the remainder one apiece to the earliest fetches,
// and never less than 1 (a fetch with no slot winds down, and a
// session with no window cannot move). The shares sum to max(total, nf).
func share(total, nf, i int) int {
	s := total / nf
	if i < total%nf {
		s++
	}
	return max(s, 1)
}
