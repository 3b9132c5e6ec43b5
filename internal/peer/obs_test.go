package peer

// obs_test.go pins the one source of serve-plane stats: a Server or
// ServerMux holds one set of counter handles, Stats() reads exactly
// those, SetObs resolves them from a registry — where they are the
// registry's own serve.*/mux.* counters, shared by every server of the
// node — and concurrent Stats() readers against mutating counters are
// race-clean (run under -race in CI).

import (
	"sync"
	"testing"

	"icd/internal/obs"
)

// TestServerStatsReadRegistry hammers two servers' counters from many
// goroutines while a reader polls Stats(), then checks that under a
// shared registry both servers' Stats() and the registry report the
// same node totals.
func TestServerStatsReadRegistry(t *testing.T) {
	var s, sibling Server
	r := obs.NewRegistry()
	s.SetObs(r)
	sibling.SetObs(r)

	const workers, per = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		// Torn-read audit: Stats() must be safe against concurrent
		// increments (each field is an independent atomic; -race is the
		// judge here, monotonicity the assertion).
		defer readers.Done()
		var last ServerStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Connections < last.Connections || st.SymbolsSent < last.SymbolsSent ||
				st.Rejected < last.Rejected || st.Malformed < last.Malformed {
				t.Error("Stats() went backwards under concurrent increments")
				return
			}
			last = st
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.met.connections.Inc()
				sibling.met.symbolsSent.Inc()
				s.met.rejected.Inc()
				sibling.met.malformed.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(workers * per)
	st := s.Stats()
	if st.Connections != want || st.SymbolsSent != want || st.Rejected != want || st.Malformed != want {
		t.Fatalf("stats lost increments: %+v, want %d each", st, want)
	}
	if sibling.Stats() != st {
		t.Fatalf("servers sharing a registry disagree: %+v vs %+v", sibling.Stats(), st)
	}
	for _, name := range []string{
		"serve.connections", "serve.symbols_sent", "serve.rejected", "serve.malformed",
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestMuxStatsReadRegistry is the same audit for the mux's
// admission-plane tallies.
func TestMuxStatsReadRegistry(t *testing.T) {
	m := NewServerMux()
	r := obs.NewRegistry()
	m.SetObs(r)

	const workers, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.met.connections.Inc()
				m.met.rejected.Inc()
				m.met.busy.Inc()
				m.met.banned.Inc()
				m.met.malformed.Inc()
			}
		}()
	}
	wg.Wait()

	want := int64(workers * per)
	st := m.Stats()
	if st.Connections != want || st.Rejected != want || st.Busy != want ||
		st.Banned != want || st.Malformed != want {
		t.Fatalf("mux stats lost increments: %+v, want %d each", st, want)
	}
	for _, name := range []string{
		"mux.connections", "mux.rejected", "mux.busy", "mux.banned", "mux.malformed",
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestServerWithoutObsStillCounts pins the unwired path: servers with no
// registry keep exact tallies of their own, each apart from the other's.
func TestServerWithoutObsStillCounts(t *testing.T) {
	info, data := testContent(t, 8, 16)
	s, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewFullServer(info, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.met.connections.Inc()
	}
	if got, apart := s.Stats().Connections, other.Stats().Connections; got != 3 || apart != 0 {
		t.Fatalf("unwired servers counted %d and %d connections, want 3 and 0", got, apart)
	}
}
