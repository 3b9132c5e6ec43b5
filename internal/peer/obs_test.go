package peer

// obs_test.go pins the one source of serve-plane counts: a ServerMux
// holds one set of mux.* and serve.* counter handles, SetObs resolves
// them from a registry — where they are the registry's own counters,
// shared by every mux of the node — and concurrent increments are
// race-clean (run under -race in CI).

import (
	"sync"
	"testing"

	"icd/internal/obs"
)

// TestServerStatsReadRegistry hammers two muxes' serve.* counters, sharing
// one registry, from many goroutines while a reader polls the registry,
// then checks that the registry reports every increment as node totals.
func TestServerStatsReadRegistry(t *testing.T) {
	m, sibling := NewServerMux(), NewServerMux()
	r := obs.NewRegistry()
	m.SetObs(r)
	sibling.SetObs(r)
	names := []string{"serve.connections", "serve.symbols_sent", "serve.symbols_encoded", "serve.rejected", "serve.malformed"}

	const workers, per = 8, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		// Torn-read audit: reading the registry must be safe against
		// concurrent increments (-race is the judge here, monotonicity
		// the assertion).
		defer readers.Done()
		last := make([]int64, len(names))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, name := range names {
				v := r.Counter(name).Value()
				if v < last[i] {
					t.Errorf("registry %s went backwards under concurrent increments", name)
					return
				}
				last[i] = v
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.served.connections.Inc()
				sibling.served.symbolsSent.Inc()
				m.served.symbolsEncoded.Inc()
				m.served.rejected.Inc()
				sibling.served.malformed.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(workers * per)
	for _, name := range names {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestMuxStatsReadRegistry is the same audit for the mux's
// admission-plane tallies.
func TestMuxStatsReadRegistry(t *testing.T) {
	m, sibling := NewServerMux(), NewServerMux()
	r := obs.NewRegistry()
	m.SetObs(r)
	sibling.SetObs(r)

	const workers, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.met.connections.Inc()
				m.met.rejected.Inc()
				sibling.met.busy.Inc()
				m.met.banned.Inc()
				sibling.met.malformed.Inc()
			}
		}()
	}
	wg.Wait()

	want := int64(workers * per)
	for _, name := range []string{
		"mux.connections", "mux.rejected", "mux.busy", "mux.banned", "mux.malformed",
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Fatalf("registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestServerWithoutObsStillCounts pins the unwired path: muxes with no
// registry keep exact tallies of their own, each apart from the other's.
func TestServerWithoutObsStillCounts(t *testing.T) {
	m, other := NewServerMux(), NewServerMux()
	for i := 0; i < 3; i++ {
		m.served.connections.Inc()
	}
	if got, apart := m.served.connections.Value(), other.served.connections.Value(); got != 3 || apart != 0 {
		t.Fatalf("unwired muxes counted %d and %d connections, want 3 and 0", got, apart)
	}
}

// observe attaches a fresh registry to mux and returns it: the one place
// a test reads the mux's counts from.
func observe(mux *ServerMux) *obs.Registry {
	r := obs.NewRegistry()
	mux.SetObs(r)
	return r
}
