package node

// sched_test.go tables the cross-content budget apportionment:
// guaranteed minimums, proportional division by progress rate, yielding
// by starved and near-complete fetches, deterministic remainder
// handling — for both currencies, connection slots and credit windows —
// and the window→pipeline-depth conversion.

import "testing"

func TestAllocateSlotsTable(t *testing.T) {
	cases := []struct {
		name  string
		total int
		sigs  []fetchSignal
		want  []int
	}{
		{
			name:  "no fetches",
			total: 8,
			sigs:  nil,
			want:  nil,
		},
		{
			name:  "budget smaller than fetch count still guarantees one each",
			total: 1,
			sigs:  []fetchSignal{{rate: 5}, {rate: 1}, {}},
			want:  []int{1, 1, 1},
		},
		{
			name:  "no signal spreads evenly",
			total: 6,
			sigs:  []fetchSignal{{}, {}, {}},
			want:  []int{2, 2, 2},
		},
		{
			name:  "even spread remainder goes to earlier fetches",
			total: 8,
			sigs:  []fetchSignal{{}, {}, {}},
			want:  []int{3, 3, 2},
		},
		{
			name:  "proportional to rate",
			total: 8,
			sigs:  []fetchSignal{{rate: 30}, {rate: 10}},
			// 1+1 base; extra 6 splits 4.5/1.5, equal remainders tie-break
			// to the earlier fetch → 6/2.
			want: []int{6, 2},
		},
		{
			name:  "starved fetch yields its share",
			total: 6,
			sigs:  []fetchSignal{{rate: 10}, {starved: true}},
			want:  []int{5, 1},
		},
		{
			name:  "near-complete fetch yields its share",
			total: 6,
			sigs:  []fetchSignal{{rate: 4, nearComplete: true}, {rate: 1}},
			want:  []int{1, 5},
		},
		{
			name:  "all yielding spreads evenly",
			total: 4,
			sigs:  []fetchSignal{{starved: true}, {nearComplete: true}},
			want:  []int{2, 2},
		},
		{
			// The satellite fix: with no rate signal, fallback share goes
			// only to fetches that have not yielded — a starved fetch must
			// not absorb slots a fresh sibling could use.
			name:  "no-signal fallback skips yielding fetches",
			total: 8,
			sigs:  []fetchSignal{{starved: true}, {}, {nearComplete: true}, {}},
			want:  []int{1, 3, 1, 3},
		},
		{
			name:  "no-signal fallback remainder lands on earlier non-yielding fetch",
			total: 6,
			sigs:  []fetchSignal{{}, {starved: true}, {}},
			want:  []int{3, 1, 2},
		},
		{
			// A yielding fetch with a positive rate still weighs zero: the
			// rate path must not resurrect its share either.
			name:  "yielding rate ignored in weighted split",
			total: 9,
			sigs:  []fetchSignal{{rate: 100, starved: true}, {rate: 2}, {rate: 1}},
			want:  []int{1, 5, 3},
		},
		{
			name:  "equal rates tie-break to earlier fetch",
			total: 5,
			sigs:  []fetchSignal{{rate: 2}, {rate: 2}},
			want:  []int{3, 2},
		},
		{
			name:  "single fetch absorbs everything",
			total: 7,
			sigs:  []fetchSignal{{rate: 1}},
			want:  []int{7},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := allocateSlots(c.total, c.sigs)
			if len(got) != len(c.want) {
				t.Fatalf("allocateSlots = %v, want %v", got, c.want)
			}
			sum := 0
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("allocateSlots = %v, want %v", got, c.want)
				}
				sum += got[i]
				if got[i] < 1 {
					t.Fatalf("fetch %d allocated %d slots (<1 would wind it down)", i, got[i])
				}
			}
			// Invariant: every slot is handed out, and the budget is only
			// exceeded by the one-per-fetch guarantee.
			max := c.total
			if len(c.sigs) > max {
				max = len(c.sigs)
			}
			if len(c.sigs) > 0 && sum != max {
				t.Fatalf("allocated %d slots, want %d", sum, max)
			}
		})
	}
}

func TestAllocateWindowsTable(t *testing.T) {
	cases := []struct {
		name   string
		budget int
		sigs   []fetchSignal
		want   []int
	}{
		{
			name:   "budget below the floors still guarantees the minimum",
			budget: 8,
			sigs:   []fetchSignal{{rate: 5}, {}},
			want:   []int{minChannelWindow, minChannelWindow},
		},
		{
			name:   "proportional to rate above the floors",
			budget: 128,
			// Floors take 32; the extra 96 splits 72/24.
			sigs: []fetchSignal{{rate: 30}, {rate: 10}},
			want: []int{88, 40},
		},
		{
			name:   "starved fetch keeps only its floor",
			budget: 96,
			sigs:   []fetchSignal{{rate: 10}, {starved: true}},
			want:   []int{80, 16},
		},
		{
			name:   "no-signal fallback skips yielding fetches",
			budget: 64,
			sigs:   []fetchSignal{{}, {nearComplete: true}},
			want:   []int{48, 16},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := allocateWindows(c.budget, c.sigs)
			if len(got) != len(c.want) {
				t.Fatalf("allocateWindows = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("allocateWindows = %v, want %v", got, c.want)
				}
				if got[i] < minChannelWindow {
					t.Fatalf("fetch %d allocated window %d < floor %d", i, got[i], minChannelWindow)
				}
			}
		})
	}
}
