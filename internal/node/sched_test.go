package node

// sched_test.go tables the even share both budgets use: its arithmetic,
// then the split of each currency — connection slots (Options.MaxConns)
// and session windows (Options.WindowBudget) — as rebalance applies it.

import "testing"

type shareCase struct {
	name  string
	total int
	want  []int
}

// runShareTable checks every fetch's share of each case's total against
// want, that no fetch gets less than 1, and that the shares sum to
// max(total, nf): every unit is handed out, and the budget is exceeded
// only by the one-per-fetch guarantee.
func runShareTable(t *testing.T, cases []shareCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nf := len(c.want)
			sum := 0
			for i, want := range c.want {
				got := share(c.total, nf, i)
				if got != want {
					t.Fatalf("share(%d, %d, %d) = %d, want %d", c.total, nf, i, got, want)
				}
				if got < 1 {
					t.Fatalf("share(%d, %d, %d) = %d, want at least 1", c.total, nf, i, got)
				}
				sum += got
			}
			if sum != max(c.total, nf) {
				t.Fatalf("shares of %d over %d fetches sum to %d, want %d", c.total, nf, sum, max(c.total, nf))
			}
		})
	}
}

func TestShareTable(t *testing.T) {
	runShareTable(t, []shareCase{
		{"even split", 6, []int{2, 2, 2}},
		{"remainder to earlier fetches", 8, []int{3, 3, 2}},
		{"remainder of two", 11, []int{4, 4, 3}},
		{"one each when total is zero", 0, []int{1, 1}},
		{"single fetch takes everything", 7, []int{7}},
	})
}

// A fetch with no slot winds down, so every fetch keeps at least one
// however small MaxConns is.
func TestAllocateSlotsTable(t *testing.T) {
	runShareTable(t, []shareCase{
		{"budget smaller than fetch count still guarantees one each", 1, []int{1, 1, 1}},
		{"eight slots over three fetches", 8, []int{3, 3, 2}},
	})
}

// A channel with no window cannot move, so every fetch keeps at least
// one frame of window however small WindowBudget is.
func TestAllocateWindowsTable(t *testing.T) {
	runShareTable(t, []shareCase{
		{"window budget over four fetches", 256, []int{64, 64, 64, 64}},
		{"budget below fetch count still opens every channel", 2, []int{1, 1, 1}},
	})
}
