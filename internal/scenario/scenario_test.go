package scenario

// scenario_test.go pins the lab's reproducibility contract (same seed,
// same plan, bit for bit), the JSON round trip of a spec, churn
// expansion, and — end to end — that a small swarm runs to convergence
// with a clean goroutine teardown.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"icd/internal/testutil"
)

func TestPlanDeterministic(t *testing.T) {
	spec, err := Preset("churn", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same spec produced two different plans")
	}

	spec.Seed = 8
	p3, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.Nodes, p3.Nodes) {
		t.Fatal("different seed reproduced the identical plan")
	}
}

func TestPlanRolesAndBootstrap(t *testing.T) {
	spec := Spec{
		Name: "roles", Seed: 3,
		Seeds: 2, Providers: 3, Clients: 5, Bystanders: 2,
		Bootstrap: 3,
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Role]int{}
	addrs := map[string]bool{}
	for _, np := range plan.Nodes {
		counts[np.Role]++
		if addrs[np.Addr] {
			t.Fatalf("duplicate address %q", np.Addr)
		}
		addrs[np.Addr] = true
		if np.Fetches() {
			if len(np.Bootstrap) == 0 {
				t.Fatalf("fetcher %s has no bootstrap", np.Addr)
			}
			hasSeed := false
			for _, b := range np.Bootstrap {
				if b == np.Addr {
					t.Fatalf("fetcher %s bootstraps from itself", np.Addr)
				}
				if b == "s0" || b == "s1" {
					hasSeed = true
				}
			}
			if !hasSeed {
				t.Fatalf("fetcher %s knows no seed: %v", np.Addr, np.Bootstrap)
			}
		} else if np.Bootstrap != nil {
			t.Fatalf("non-fetcher %s has a bootstrap set", np.Addr)
		}
		if np.Role == RoleProvider && np.Symbols <= 0 {
			t.Fatalf("provider %s starts with no symbols", np.Addr)
		}
	}
	want := map[Role]int{RoleSeed: 2, RoleProvider: 3, RoleClient: 5, RoleBystander: 2}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("role counts = %v, want %v", counts, want)
	}
}

func TestPlanChurnExpansion(t *testing.T) {
	spec := Spec{
		Name: "churny", Seed: 11,
		Seeds: 1, Clients: 10,
		Churn: []ChurnEvent{
			{At: Duration(100 * time.Millisecond), Action: ActionKill, Role: RoleClient, Count: 2},
			{At: Duration(200 * time.Millisecond), Action: ActionLeave, Role: RoleClient, Count: 1},
			{At: Duration(300 * time.Millisecond), Action: ActionJoin, Role: RoleClient, Count: 3},
		},
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	kills, leaves, joins := 0, 0, 0
	for _, np := range plan.Nodes {
		switch {
		case np.StopKind == ActionKill:
			kills++
		case np.StopKind == ActionLeave:
			leaves++
		}
		if np.Start > 0 {
			joins++
			if np.Start.D() != 300*time.Millisecond {
				t.Fatalf("join node %s starts at %v", np.Addr, np.Start.D())
			}
		}
	}
	if kills != 2 || leaves != 1 || joins != 3 {
		t.Fatalf("churn expansion: kills=%d leaves=%d joins=%d", kills, leaves, joins)
	}
	// A victim count above the eligible population must fail loudly.
	spec.Churn = []ChurnEvent{{At: 1, Action: ActionKill, Role: RoleClient, Count: 11}}
	if _, err := spec.Plan(); err == nil {
		t.Fatal("over-sized kill wave planned without error")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	// A spec written into a result reads back unchanged, its durations
	// in their string form.
	spec, err := Preset("lossy", 50, 21)
	if err != nil {
		t.Fatal(err)
	}
	spec.Links = append(spec.Links, LinkSpec{Name: "dsl", Weight: 1, Latency: Duration(2 * time.Millisecond), Jitter: Duration(500 * time.Microsecond)})
	spec.Churn = []ChurnEvent{{At: Duration(150 * time.Millisecond), Action: ActionKill, Role: RoleClient, Count: 1}}
	spec.Timeout = Duration(30 * time.Second)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"latency":"2ms"`, `"jitter":"500µs"`, `"at":"150ms"`, `"timeout":"30s"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshaled spec lacks %s:\n%s", want, data)
		}
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", spec, back)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"250 ms"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{Name: "no-fetchers", Seeds: 2},
		{Name: "bad-action", Clients: 1, Churn: []ChurnEvent{{Action: "explode", Role: RoleClient, Count: 1}}},
		{Name: "bad-role", Clients: 1, Churn: []ChurnEvent{{Action: ActionKill, Role: "ghost", Count: 1}}},
		{Name: "seed-join", Clients: 1, Churn: []ChurnEvent{{Action: ActionJoin, Role: RoleSeed, Count: 1}}},
		{Name: "zero-count", Clients: 1, Churn: []ChurnEvent{{Action: ActionKill, Role: RoleClient}}},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %q validated", s.Name)
		}
	}
}

// TestSmallRunConverges is the end-to-end check: every preset, as a
// 12-node swarm over shaped links, runs to convergence in one process,
// carries the swarm time-series, and tears down without leaking a
// goroutine.
func TestSmallRunConverges(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			defer testutil.CheckGoroutines(t)()
			spec, err := Preset(name, 12, 42)
			if err != nil {
				t.Fatal(err)
			}
			spec.Timeout = Duration(60 * time.Second)
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("12-node swarm did not converge: %+v", res)
			}
			if name == "clean" && (res.Failed != 0 || res.Churned != 0) {
				t.Fatalf("clean run reports failures or churn: %+v", res)
			}
			if res.Completed == 0 || res.Convergence <= 0 {
				t.Fatalf("no completions measured: %+v", res)
			}
			if res.P95 < res.P50 || res.Spread < 1 {
				t.Fatalf("percentiles inverted: %+v", res)
			}
			if res.Offload < 0 || res.Offload > 1 {
				t.Fatalf("offload out of range: %+v", res)
			}
			if len(res.Series) == 0 {
				t.Fatal("run carries no swarm time-series")
			}
			if last := res.Series[len(res.Series)-1]; last.Offset <= 0 {
				t.Fatalf("series never advanced: %+v", last)
			}
		})
	}
}

// TestChurnRunSurvives runs the churn preset small: killed and left
// fetchers are accounted as churned, everyone else still converges.
func TestChurnRunSurvives(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	spec, err := Preset("churn", 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec.Timeout = Duration(60 * time.Second)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("churn swarm did not converge for its survivors: %+v", res)
	}
	if res.Churned == 0 {
		t.Fatalf("churn schedule stopped nobody: %+v", res)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ds, 0.50); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(ds, 0.95); got != 10 {
		t.Fatalf("p95 = %v", got)
	}
	if got := percentile(ds[:1], 0.95); got != 1 {
		t.Fatalf("p95 of singleton = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("p50 of empty = %v", got)
	}
}
