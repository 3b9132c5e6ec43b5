package scenario

// spec.go is the scenario DSL and its deterministic expansion: Spec
// declares a swarm (roles, link classes, churn schedule) and Plan turns
// it into concrete per-node assignments — every random choice drawn
// from the spec's seed, so a plan is a pure function of its spec.

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"icd/internal/faultnet"
	"icd/internal/prng"
)

// Duration is a time.Duration that JSON-encodes as its human-readable
// string form ("250ms") and decodes from it, so a spec written into a
// result stays readable and reads back.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes the String form MarshalJSON writes.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string: %w", err)
	}
	parsed, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(parsed)
	return nil
}

// Role classifies a node's part in the scenario.
type Role string

// The four node roles a scenario declares.
const (
	// RoleSeed holds the complete content from the start (pinned) and
	// never fetches — the origin servers whose offload the lab measures.
	RoleSeed Role = "seed"
	// RoleProvider starts with a partial working set and fetches the
	// rest, serving what it holds throughout.
	RoleProvider Role = "provider"
	// RoleClient starts empty and fetches, serving its growing working
	// set as soon as the first handshake fixes the metadata.
	RoleClient Role = "client"
	// RoleBystander runs a listener but neither holds nor fetches the
	// content — churn fodder and gossip-plane noise.
	RoleBystander Role = "bystander"
)

// LinkSpec is one weighted access-link class of the scenario's
// population. Zero-value shaping fields mean unshaped.
type LinkSpec struct {
	// Name labels the class ("dsl", "campus", ...).
	Name string `json:"name"`
	// Weight is the class's share of the population (relative to the
	// other classes' weights; ≤0 counts as 1).
	Weight int `json:"weight,omitempty"`
	// Latency/Jitter shape one-way propagation per faultnet.LinkClass.
	Latency Duration `json:"latency,omitempty"`
	Jitter  Duration `json:"jitter,omitempty"`
	// UpBps/DownBps cap the link's asymmetric rates in bytes/second
	// (0 = unlimited).
	UpBps   int `json:"up_bps,omitempty"`
	DownBps int `json:"down_bps,omitempty"`
	// LossProb is the per-chunk loss probability, surfacing as
	// retransmission delay on the reliable stream.
	LossProb float64 `json:"loss_prob,omitempty"`
}

// Class converts the spec entry to the transport's LinkClass.
func (l LinkSpec) Class() faultnet.LinkClass {
	return faultnet.LinkClass{
		Name:     l.Name,
		Latency:  l.Latency.D(),
		Jitter:   l.Jitter.D(),
		UpBps:    l.UpBps,
		DownBps:  l.DownBps,
		LossProb: l.LossProb,
	}
}

// Churn actions.
const (
	// ActionJoin adds Count fresh nodes of Role at the offset.
	ActionJoin = "join"
	// ActionLeave stops Count nodes of Role gracefully: the fetch is
	// cancelled, then the node closes.
	ActionLeave = "leave"
	// ActionKill stops Count nodes of Role abruptly: the node closes
	// first, so peers see connections die mid-stream.
	ActionKill = "kill"
)

// ChurnEvent is one scheduled membership change.
type ChurnEvent struct {
	// At is the event's offset from the run start.
	At Duration `json:"at"`
	// Action is join, leave or kill.
	Action string `json:"action"`
	// Role selects which population the event touches (join: the role
	// of the new nodes; leave/kill: the victims' role).
	Role Role `json:"role"`
	// Count is how many nodes the event adds or removes.
	Count int `json:"count"`
}

// Spec declares one scenario. The zero value of every tuning field
// picks a sensible default (see withDefaults); Name, Seed and at least
// one fetcher (provider or client) are the caller's job.
type Spec struct {
	// Name labels the scenario in metrics and artifacts.
	Name string `json:"name"`
	// Seed fixes every random draw of the run: topology, link
	// assignment, bootstrap sets, churn victims, content bytes and the
	// shaped transport's jitter/loss schedule.
	Seed uint64 `json:"seed"`

	// Blocks × BlockSize size the content (defaults 48 × 32: swarm
	// dynamics, not decode throughput, are the subject at 1000 nodes).
	Blocks    int `json:"blocks,omitempty"`
	BlockSize int `json:"block_size,omitempty"`

	// Seeds/Providers/Clients/Bystanders count the initial population
	// by role (Seeds defaults to 1).
	Seeds      int `json:"seeds,omitempty"`
	Providers  int `json:"providers,omitempty"`
	Clients    int `json:"clients,omitempty"`
	Bystanders int `json:"bystanders,omitempty"`

	// ProviderFill is the fraction of Blocks a provider starts holding
	// (default 0.4).
	ProviderFill float64 `json:"provider_fill,omitempty"`
	// Bootstrap is how many peers each fetcher knows at start — one
	// seed plus Bootstrap-1 random dialable nodes (default 2).
	Bootstrap int `json:"bootstrap,omitempty"`

	// Links are the weighted access-link classes nodes draw from
	// (empty = every link unshaped).
	Links []LinkSpec `json:"links,omitempty"`
	// Churn is the membership schedule.
	Churn []ChurnEvent `json:"churn,omitempty"`

	// MaxPeers caps each fetcher's concurrent sessions (default 4).
	MaxPeers int `json:"max_peers,omitempty"`
	// Tick is each node's housekeeping cadence (default 250ms).
	Tick Duration `json:"tick,omitempty"`
	// Timeout bounds each fetch; a fetcher that cannot finish inside it
	// fails the run's convergence (default 2m).
	Timeout Duration `json:"timeout,omitempty"`
	// SampleEvery is the cadence at which the runner snapshots every
	// live node's metrics registry into the run's swarm time-series
	// (default 1s; negative disables sampling).
	SampleEvery Duration `json:"sample_every,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Blocks <= 0 {
		s.Blocks = 48
	}
	if s.BlockSize <= 0 {
		s.BlockSize = 32
	}
	if s.Seeds <= 0 {
		s.Seeds = 1
	}
	if s.ProviderFill <= 0 || s.ProviderFill >= 1 {
		s.ProviderFill = 0.4
	}
	if s.Bootstrap <= 0 {
		s.Bootstrap = 2
	}
	if s.MaxPeers <= 0 {
		s.MaxPeers = 4
	}
	if s.Tick <= 0 {
		s.Tick = Duration(250 * time.Millisecond)
	}
	if s.Timeout <= 0 {
		s.Timeout = Duration(2 * time.Minute)
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = Duration(time.Second)
	}
	return s
}

// Nodes is the initial population size (churn joins come on top).
func (s Spec) Nodes() int { return s.Seeds + s.Providers + s.Clients + s.Bystanders }

// Validate rejects specs the runner cannot execute.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Providers+s.Clients == 0 {
		hasJoin := false
		for _, ev := range s.Churn {
			if ev.Action == ActionJoin && (ev.Role == RoleClient || ev.Role == RoleProvider) {
				hasJoin = true
			}
		}
		if !hasJoin {
			return fmt.Errorf("scenario %q: no fetchers (providers, clients or join events)", s.Name)
		}
	}
	for _, ev := range s.Churn {
		switch ev.Action {
		case ActionJoin, ActionLeave, ActionKill:
		default:
			return fmt.Errorf("scenario %q: unknown churn action %q", s.Name, ev.Action)
		}
		switch ev.Role {
		case RoleSeed, RoleProvider, RoleClient, RoleBystander:
		default:
			return fmt.Errorf("scenario %q: unknown churn role %q", s.Name, ev.Role)
		}
		if ev.Action == ActionJoin && ev.Role == RoleSeed {
			return fmt.Errorf("scenario %q: seeds cannot join mid-run (they hold the content from t=0)", s.Name)
		}
		if ev.Count <= 0 {
			return fmt.Errorf("scenario %q: churn event with count %d", s.Name, ev.Count)
		}
		if ev.At < 0 {
			return fmt.Errorf("scenario %q: churn event at negative offset %v", s.Name, ev.At.D())
		}
	}
	return nil
}

// NodePlan is one node's concrete assignment in an expanded plan.
type NodePlan struct {
	// Addr is the node's listen address on the shaped network.
	Addr string
	// Role is the node's part.
	Role Role
	// Class names the node's link class ("" = unshaped default).
	Class string
	// Bootstrap are the peers the node knows when it starts (fetchers
	// only).
	Bootstrap []string
	// Start is the node's join offset (0 = present from the start).
	Start Duration
	// Stop is the node's scheduled departure offset (0 = stays).
	Stop Duration
	// StopKind is ActionLeave or ActionKill when Stop is set.
	StopKind string
	// Symbols is a provider's initial distinct-symbol count.
	Symbols int
	// SymbolSeed drives which symbols the provider starts with.
	SymbolSeed uint64
}

// Fetches reports whether this node runs a fetch.
func (np NodePlan) Fetches() bool { return np.Role == RoleProvider || np.Role == RoleClient }

// Plan is a fully expanded scenario: the spec (with defaults applied)
// plus every node's assignment, in deterministic order.
type Plan struct {
	Spec  Spec
	Nodes []NodePlan
}

// Plan expands the spec deterministically: same spec (same seed), same
// plan, independent of where or when it runs.
func (s Spec) Plan() (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	rng := prng.New(s.Seed ^ 0x5CE4A610)

	counts := map[Role]int{}
	mk := func(role Role, start Duration) NodePlan {
		i := counts[role]
		counts[role]++
		np := NodePlan{
			Addr:  fmt.Sprintf("%c%d", role[0], i), // s0, p0, c0, b0, ...
			Role:  role,
			Start: start,
		}
		if role == RoleProvider {
			np.Symbols = int(s.ProviderFill * float64(s.Blocks))
			if np.Symbols < 1 {
				np.Symbols = 1
			}
			np.SymbolSeed = rng.Uint64()
		}
		return np
	}

	var nodes []NodePlan
	for i := 0; i < s.Seeds; i++ {
		nodes = append(nodes, mk(RoleSeed, 0))
	}
	for i := 0; i < s.Providers; i++ {
		nodes = append(nodes, mk(RoleProvider, 0))
	}
	for i := 0; i < s.Clients; i++ {
		nodes = append(nodes, mk(RoleClient, 0))
	}
	for i := 0; i < s.Bystanders; i++ {
		nodes = append(nodes, mk(RoleBystander, 0))
	}

	// Churn: joins append fresh nodes; leaves and kills pick victims
	// among the initial population of the role (never already-scheduled
	// ones), in event order.
	events := append([]ChurnEvent(nil), s.Churn...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		switch ev.Action {
		case ActionJoin:
			for i := 0; i < ev.Count; i++ {
				nodes = append(nodes, mk(ev.Role, ev.At))
			}
		case ActionLeave, ActionKill:
			var eligible []int
			for i, np := range nodes {
				if np.Role == ev.Role && np.Start == 0 && np.StopKind == "" {
					eligible = append(eligible, i)
				}
			}
			if len(eligible) < ev.Count {
				return nil, fmt.Errorf("scenario %q: churn %s of %d %ss at %v, only %d eligible",
					s.Name, ev.Action, ev.Count, ev.Role, ev.At.D(), len(eligible))
			}
			for i := 0; i < ev.Count; i++ {
				pick := rng.Intn(len(eligible))
				idx := eligible[pick]
				eligible = append(eligible[:pick], eligible[pick+1:]...)
				nodes[idx].Stop = ev.At
				nodes[idx].StopKind = ev.Action
			}
		}
	}

	// Link classes: weighted draw per node.
	if len(s.Links) > 0 {
		total := 0
		for _, l := range s.Links {
			w := l.Weight
			if w <= 0 {
				w = 1
			}
			total += w
		}
		for i := range nodes {
			draw := rng.Intn(total)
			for _, l := range s.Links {
				w := l.Weight
				if w <= 0 {
					w = 1
				}
				if draw < w {
					nodes[i].Class = l.Name
					break
				}
				draw -= w
			}
		}
	}

	// Bootstrap sets: every fetcher knows one seed plus Bootstrap-1
	// distinct other dialable nodes (seeds, providers or clients that
	// are present from the start — not itself, not bystanders).
	var seedAddrs, dialable []string
	for _, np := range nodes {
		if np.Start != 0 {
			continue
		}
		if np.Role == RoleSeed {
			seedAddrs = append(seedAddrs, np.Addr)
		}
		if np.Role == RoleSeed || np.Role == RoleProvider || np.Role == RoleClient {
			dialable = append(dialable, np.Addr)
		}
	}
	for i := range nodes {
		np := &nodes[i]
		if !np.Fetches() {
			continue
		}
		boot := []string{seedAddrs[rng.Intn(len(seedAddrs))]}
		seen := map[string]bool{boot[0]: true, np.Addr: true}
		for tries := 0; len(boot) < s.Bootstrap && tries < 4*s.Bootstrap; tries++ {
			cand := dialable[rng.Intn(len(dialable))]
			if !seen[cand] {
				seen[cand] = true
				boot = append(boot, cand)
			}
		}
		np.Bootstrap = boot
	}

	return &Plan{Spec: s, Nodes: nodes}, nil
}
