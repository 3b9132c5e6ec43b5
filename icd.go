package icd

import (
	"context"

	"icd/internal/bloom"
	"icd/internal/core"
	"icd/internal/fountain"
	"icd/internal/keyset"
	"icd/internal/minwise"
	"icd/internal/node"
	"icd/internal/overlay"
	"icd/internal/peer"
	"icd/internal/prng"
	"icd/internal/recode"
	"icd/internal/recon"
	"icd/internal/strategy"
	"icd/internal/transfer"
)

// ---- Working sets (substrate) ----

// WorkingSet is a set of 64-bit encoded-symbol identifiers with O(1)
// membership and uniform random choice.
type WorkingSet = keyset.Set

// NewWorkingSet returns an empty working set with a capacity hint.
func NewWorkingSet(capacity int) *WorkingSet { return keyset.New(capacity) }

// WorkingSetFromKeys builds a working set from symbol ids.
func WorkingSetFromKeys(keys []uint64) *WorkingSet { return keyset.FromKeys(keys) }

// RandomWorkingSet draws n distinct pseudo-random symbol ids (useful for
// simulations and tests).
func RandomWorkingSet(seed uint64, n int) *WorkingSet {
	return keyset.Random(prng.New(seed), n)
}

// ---- Coarse estimation: min-wise sketches (§4) ----

// Sketch is a min-wise working-set sketch: the 1KB "calling card".
type Sketch = minwise.Sketch

// DefaultSketchSize is 128 coordinates — one 1KB packet.
const DefaultSketchSize = minwise.DefaultSize

// NewSketch returns an empty sketch over m shared permutations.
func NewSketch(familySeed uint64, m int) *Sketch { return minwise.New(familySeed, m) }

// BuildSketch sketches an existing working set.
func BuildSketch(familySeed uint64, m int, set *WorkingSet) *Sketch {
	return minwise.Build(familySeed, m, set)
}

// ---- Fine-grained reconciliation (§5) ----

// BloomFilter is a §5.2 working-set summary.
type BloomFilter = bloom.Filter

// NewBloomFilter sizes a filter for n elements at the given bits per
// element; k ≤ 0 picks the optimal hash count.
func NewBloomFilter(seed uint64, n int, bitsPerElement float64, k int) *BloomFilter {
	return bloom.NewWithBitsPerElement(seed, n, bitsPerElement, k)
}

// BuildBloomFilter summarizes a working set (the paper's defaults are 8
// bits per element with 5 hashes).
func BuildBloomFilter(seed uint64, set *WorkingSet, bitsPerElement float64, k int) *BloomFilter {
	return bloom.FromSet(seed, set, bitsPerElement, k)
}

// ReconTree is a §5.3 approximate reconciliation tree.
type ReconTree = recon.Tree

// ReconSummary is the transmissible two-Bloom-filter form of a ReconTree.
type ReconSummary = recon.Summary

// ReconParams fixes the tree's two hash seeds; all peers must agree.
type ReconParams = recon.Params

// ReconSummaryOptions sets the §5.3 bit budget and leaf/internal split.
type ReconSummaryOptions = recon.SummaryOptions

// DefaultReconParams are the library-wide agreed tree hashes.
var DefaultReconParams = recon.DefaultParams

// BuildReconTree constructs the ART of a working set.
func BuildReconTree(params ReconParams, set *WorkingSet) *ReconTree {
	return recon.Build(params, set)
}

// ---- Codes (§5.4.1) ----

// Code fixes the shared sparse parity-check code parameters.
type Code = fountain.Code

// CodeSymbol is one encoding symbol (64-bit id + XOR payload).
type CodeSymbol = fountain.Symbol

// Encoder streams encoding symbols from a full copy of the content.
type Encoder = fountain.Encoder

// Decoder recovers content with the substitution (peeling) rule.
type Decoder = fountain.Decoder

// DegreeDistribution is a distribution over symbol degrees.
type DegreeDistribution = fountain.Distribution

// DefaultBlockSize is the paper's 1400-byte packetization.
const DefaultBlockSize = fountain.DefaultBlockSize

// NewCode creates a code over n source blocks (nil distribution selects
// the calibrated robust soliton).
func NewCode(n int, dist *DegreeDistribution, seed uint64) (*Code, error) {
	return fountain.NewCode(n, dist, seed)
}

// NewEncoder wraps equal-length source blocks in a fountain encoder.
func NewEncoder(code *Code, blocks [][]byte, streamSeed uint64) (*Encoder, error) {
	return fountain.NewEncoder(code, blocks, streamSeed)
}

// NewDecoder prepares a peeling decoder.
func NewDecoder(code *Code, blockSize int) (*Decoder, error) {
	return fountain.NewDecoder(code, blockSize)
}

// ShardedDecoder is a Decoder that peels symbol batches concurrently on
// multiple cores, safe for concurrent AddSymbol from many feeders. It is
// no longer on the fetch path: Fetch decodes on the plain Decoder, which
// measured 4× faster at k=4096 on two cores (the shards' coordination
// cost more than the XOR work they spread).
type ShardedDecoder = fountain.ShardedDecoder

// NewShardedDecoder prepares a sharded peeling decoder over `shards`
// worker goroutines (≤ 0 selects GOMAXPROCS). Close it when done.
func NewShardedDecoder(code *Code, blockSize, shards int) (*ShardedDecoder, error) {
	return fountain.NewShardedDecoder(code, blockSize, shards)
}

// SplitIntoBlocks divides content into fixed-size blocks (zero-padded).
func SplitIntoBlocks(data []byte, blockSize int) ([][]byte, int, error) {
	return fountain.SplitIntoBlocks(data, blockSize)
}

// JoinBlocks reassembles content from recovered blocks.
func JoinBlocks(blocks [][]byte, origLen int) ([]byte, error) {
	return fountain.JoinBlocks(blocks, origLen)
}

// RobustSoliton builds Luby's robust soliton distribution.
func RobustSoliton(n int, c, delta float64) *DegreeDistribution {
	return fountain.RobustSoliton(n, c, delta)
}

// ---- Recoding (§5.4.2) ----

// RecodedSymbol is the XOR of encoded symbols plus their id list.
type RecodedSymbol = recode.Symbol

// Recoder generates recoded symbols from a partial working set.
type Recoder = recode.Recoder

// RecodeDecoder peels recoded symbols back into encoded symbols.
type RecodeDecoder = recode.Decoder

// RecoderOptions configure a Recoder.
type RecoderOptions = recode.Options

// DegreePolicy selects recoded degree choice (Oblivious, MinwiseScaled,
// LowerBounded, CoverageAdaptive).
type DegreePolicy = recode.DegreePolicy

// Degree policies (§5.4.2, §6.2).
const (
	Oblivious        = recode.Oblivious
	MinwiseScaled    = recode.MinwiseScaled
	LowerBounded     = recode.LowerBounded
	CoverageAdaptive = recode.CoverageAdaptive
)

// MaxRecodeDegree is the paper's recoded degree limit (50).
const MaxRecodeDegree = recode.MaxDegree

// NewRecoder snapshots a recoding domain.
func NewRecoder(seed uint64, domain *WorkingSet, opt RecoderOptions) (*Recoder, error) {
	return recode.NewRecoder(prng.New(seed), domain, opt)
}

// NewRecodeDecoder creates a recode decoder; withData selects payload
// tracking (false = identity-level simulation).
func NewRecodeDecoder(withData bool) *RecodeDecoder { return recode.NewDecoder(withData) }

// OptimalRecodeDegree returns the §5.4.2 degree d* maximizing immediate
// usefulness at containment c over an n-symbol domain.
func OptimalRecodeDegree(n int, c float64) int { return recode.OptimalImmediateDegree(n, c) }

// ---- Strategies and transfer simulation (§6) ----

// Strategy is one of the paper's five content-selection strategies.
type Strategy = strategy.Kind

// The §6.2 strategies.
const (
	Random   = strategy.Random
	RandomBF = strategy.RandomBF
	Recode   = strategy.Recode
	RecodeBF = strategy.RecodeBF
	RecodeMW = strategy.RecodeMW
)

// AllStrategies lists the strategies in the paper's plotting order.
var AllStrategies = strategy.AllKinds

// StrategyConfig carries per-connection reconciliation parameters.
type StrategyConfig = strategy.Config

// TransferConfig configures a simulated download.
type TransferConfig = transfer.Config

// TransferResult is the outcome of a simulated download.
type TransferResult = transfer.Result

// SenderSpec describes one simulated sender.
type SenderSpec = transfer.SenderSpec

// RunTransfer simulates one download (§6.3 methodology).
func RunTransfer(cfg TransferConfig) (TransferResult, error) { return transfer.Run(cfg) }

// TransferTarget is the §6.1 completion threshold: ⌈1.07·n⌉ distinct
// symbols for n source blocks.
func TransferTarget(n int) int { return transfer.Target(n) }

// TwoPeerScenario builds the Figure 5/6 initial conditions.
func TwoPeerScenario(seed uint64, n int, stretch, corr float64) (receiver, sender *WorkingSet, err error) {
	return transfer.TwoPeerScenario(prng.New(seed), n, stretch, corr)
}

// MultiPeerScenario builds the Figure 7/8 initial conditions.
func MultiPeerScenario(seed uint64, n int, stretch, corr float64, numSenders int) (*WorkingSet, []*WorkingSet, error) {
	return transfer.MultiPeerScenario(prng.New(seed), n, stretch, corr, numSenders)
}

// Scenario stretch factors (§6.3).
const (
	CompactStretch   = transfer.CompactStretch
	StretchedStretch = transfer.StretchedStretch
)

// ---- Overlay simulation (§1/§2, Figure 1) ----

// Overlay is a simulated overlay network.
type Overlay = overlay.Network

// OverlayEdge is a unicast connection with capacity, loss and mode.
type OverlayEdge = overlay.Edge

// OverlayEvent mutates the network mid-run (reconfiguration).
type OverlayEvent = overlay.Event

// Overlay forwarding modes.
const (
	RandomForward = overlay.RandomForward
	Reconciled    = overlay.Reconciled
)

// NewOverlay creates an overlay whose nodes complete at target distinct
// symbols.
func NewOverlay(target int, seed uint64) *Overlay { return overlay.New(target, seed) }

// ---- Informed-delivery orchestration (§3/§4) ----

// InformedPeer is one end-system's informed-delivery state: working set,
// incremental sketch, summaries, admission control and sender planning.
type InformedPeer = core.Peer

// PeerConfig parameterizes an InformedPeer.
type PeerConfig = core.Config

// Assessment is an admission-control result.
type Assessment = core.Assessment

// NewInformedPeer creates an empty informed peer.
func NewInformedPeer(cfg PeerConfig) *InformedPeer { return core.NewPeer(cfg) }

// ---- Prototype network peers (§6) ----

// ContentInfo identifies one piece of shared content.
type ContentInfo = peer.ContentInfo

// Server is the symbol source for one content — a full, partial or
// live sender. It owns no listener: Register it on a ServerMux, the one
// serving front door, and Fetch reaches it over a fabric subchannel.
type Server = peer.Server

// FetchOptions tune a download.
type FetchOptions = peer.FetchOptions

// FetchResult is a completed (or resumable partial) download.
type FetchResult = peer.FetchResult

// NewFullServer builds a full sender from raw content. It adopts content
// instead of copying it (only a zero-padded tail block is copied), so
// content must not be modified while the server serves it.
func NewFullServer(info ContentInfo, content []byte) (*Server, error) {
	return peer.NewFullServer(info, content)
}

// NewPartialServer builds a partial sender from a working set of encoded
// symbols. It adopts the payloads instead of copying them, so they must
// not be modified while the server serves them.
func NewPartialServer(info ContentInfo, symbols map[uint64][]byte) (*Server, error) {
	return peer.NewPartialServer(info, symbols)
}

// PeerStats summarizes one session's contribution to a download.
type PeerStats = peer.PeerStats

// Fetch downloads content from a mix of full and partial peers in
// parallel.
func Fetch(addrs []string, contentID uint64, opts FetchOptions) (*FetchResult, error) {
	return peer.Fetch(addrs, contentID, opts)
}

// FetchContext is Fetch with cancellation: the engine unwinds promptly
// when ctx fires and returns the partial state with ctx's error.
func FetchContext(ctx context.Context, addrs []string, contentID uint64, opts FetchOptions) (*FetchResult, error) {
	return peer.FetchContext(ctx, addrs, contentID, opts)
}

// Orchestrator is the adaptive swarm engine behind Fetch: it owns a
// download's shared working set and decoders and manages per-connection
// sessions dynamically — AddPeer/DropPeer mid-transfer, utility-ranked
// eviction at the peer cap, reconnect backoff — the §2.1 adaptivity on
// the real network.
type Orchestrator = peer.Orchestrator

// NewOrchestrator prepares a swarm engine for one piece of content; add
// peers and collect the result via Run.
func NewOrchestrator(contentID uint64, opts FetchOptions) *Orchestrator {
	return peer.NewOrchestrator(contentID, opts)
}

// WorkingSetSource is the append-only log of encoded symbols a partial
// sender serves: one method, returning the log's current prefix
// (ids in arrival order, payloads index-aligned), whose length is its
// version. An Orchestrator implements it.
type WorkingSetSource = peer.WorkingSetSource

// NewLiveServer builds a partial sender over a working-set log that may
// still be growing — pass an Orchestrator to make a node serve what it
// has learned so far while it is still downloading (Figure 1(c)
// collaboration). NewPartialServer is the same sender over a fixed log.
func NewLiveServer(info ContentInfo, src WorkingSetSource) (*Server, error) {
	return peer.NewLiveServer(info, src)
}

// Gossip is a node-wide directory of advertised peer addresses — the
// gossip discovery substrate. Share one instance between a node's
// Orchestrator (FetchOptions.Gossip) and its front door
// (ServerMux.SetGossip) so every address heard on either side flows into
// the same admission path, and a swarm bootstrapped from a single seed
// address self-assembles the full mesh.
type Gossip = peer.Gossip

// NewGossip creates an empty peer directory; self is this node's own
// advertised address (never gossiped back to itself).
func NewGossip(self string) *Gossip {
	return peer.NewGossip(self)
}

// ---- Multi-content node (content store + one listener + scheduler) ----

// ServerMux is the serving front door: one listener for any number of
// contents. It answers each connection's fabric handshake and routes
// every subchannel to the registered Server for its content id; unknown
// ids get the canonical unknown-content rejection.
type ServerMux = peer.ServerMux

// MuxStats exposes a ServerMux's connection counters.
type MuxStats = peer.MuxStats

// NewServerMux creates an empty multi-content listener.
func NewServerMux() *ServerMux { return peer.NewServerMux() }

// ErrUnknownContent marks a fetch whose peer is alive but does not
// serve the requested content id; sessions fail terminally on it
// (redialing cannot change the answer).
var ErrUnknownContent = peer.ErrUnknownContent

// Node is a multi-content overlay peer: a content store under a byte
// budget, one listener serving every stored content, and a connection
// budget and a window budget split evenly among concurrent
// fetches. See internal/node and doc.go's "Node and content store"
// section.
type Node = node.Node

// NodeOptions configure a Node (listen address, store byte budget,
// global connection budget, housekeeping cadence, fetch template).
type NodeOptions = node.Options

// NewNode creates a multi-content node.
func NewNode(opts NodeOptions) *Node { return node.New(opts) }

// ContentStore is a Node's replica registry: per-content entries under
// a byte budget with pinning and utility/LRU-ranked eviction.
type ContentStore = node.Store

// NewContentStore creates a standalone content store with the given
// byte budget (<= 0 = unlimited).
func NewContentStore(budget int64) *ContentStore { return node.NewStore(budget) }

// ContentStatus is one store entry's externally visible state.
type ContentStatus = node.ContentStatus

// NodeTransfer is a handle on one of a Node's in-flight fetches.
type NodeTransfer = node.Transfer

// DescribeContent computes the ContentInfo for raw content at the given
// block size, with the code seed derived from the id. It reads only the
// content's length.
func DescribeContent(id uint64, content []byte, blockSize int) (ContentInfo, error) {
	n, err := fountain.NumBlocks(len(content), blockSize)
	if err != nil {
		return ContentInfo{}, err
	}
	return ContentInfo{
		ID:        id,
		NumBlocks: n,
		BlockSize: blockSize,
		OrigLen:   len(content),
		CodeSeed:  id ^ 0x1CD,
	}, nil
}

// EncodeSymbols produces count distinct encoded symbols of the content —
// the working set a future partial sender would hold. Their payloads are
// views of one count×BlockSize slab, each clipped to its own length.
func EncodeSymbols(info ContentInfo, content []byte, count int, streamSeed uint64) (map[uint64][]byte, error) {
	blocks, _, err := fountain.ViewBlocks(content, info.BlockSize)
	if err != nil {
		return nil, err
	}
	code, err := fountain.NewCode(info.NumBlocks, nil, info.CodeSeed)
	if err != nil {
		return nil, err
	}
	return fountain.DistinctSymbols(code, blocks, streamSeed, count)
}
