// Package icd implements informed content delivery across adaptive
// overlay networks, after Byers, Considine, Mitzenmacher and Rost
// (SIGCOMM 2002).
//
// The library provides the paper's full toolbox for collaborating
// end-systems that exchange digital-fountain-encoded content:
//
//   - Coarse working-set estimation (§4): min-wise permutation sketches
//     that estimate the overlap of two peers' working sets from a single
//     1KB message, support unions for multi-peer planning, and update
//     incrementally.
//
//   - Fine-grained approximate reconciliation (§5): Bloom filter
//     summaries and Approximate Reconciliation Trees — a hash-balanced
//     collapsed trie whose XOR node values are shipped in two small Bloom
//     filters — letting a peer locate the symbols its neighbor lacks with
//     O(d log n) work and a few bits per element.
//
//   - Sparse parity-check codes and recoding (§5.4): an LT-style
//     fountain codec (robust-soliton family, 64-bit symbol seeds,
//     substitution-rule peeling decoder) plus the recoding layer that
//     lets peers holding only partial content act as useful, additive
//     senders, with informed degree selection driven by sketch estimates.
//     (Recoding is the simulator's and the toolbox's: the network engine's
//     partial senders send what they hold, once — see "Collaboration".)
//
//   - Delivery machinery (§6): the five transfer strategies the paper
//     evaluates (Random, Random/BF, Recode, Recode/BF, Recode/MW), a
//     round-based transfer simulator, an overlay-network simulator with
//     loss injection and reconfiguration, and a real TCP prototype with
//     parallel downloads and stateless connection migration.
//
// # Quick start
//
// Serve a file from a full sender and fetch it:
//
//	info, _ := icd.DescribeContent(0xF00D, data, 1400)
//	srv, _ := icd.NewFullServer(info, data) // serves data itself: leave it unmodified while served
//	mux := icd.NewServerMux() // the one front door: one listener, any number of contents, the serving plane's directory and counts
//	mux.Register(srv)
//	go mux.ListenAndServe("127.0.0.1:9000")
//	res, _ := icd.Fetch([]string{"127.0.0.1:9000"}, info.ID, icd.FetchOptions{})
//	os.WriteFile("out", res.Data, 0o644)
//
// Estimate how useful a candidate peer is before connecting:
//
//	mine := icd.BuildSketch(seed, 128, myWorkingSet)
//	theirs := ... // received in one packet
//	r, _ := mine.Resemblance(theirs)
//
// The runnable programs under examples/ walk through reconciliation,
// collaborative overlay delivery, and parallel downloading from partial
// senders; cmd/icdbench regenerates every figure and table of the
// paper's evaluation (`icdbench -list`).
//
// # What this package exports
//
// The facade exports both halves of the repository — the paper's
// §-by-§ simulator and the network engine, one section each below — over
// one shared toolbox (working sets, sketches, Bloom/ART summaries, the
// fountain codec and recoding). The two share the codec and the
// summaries, not code paths: a change to the engine cannot move a paper
// figure, and the figures are kept as regression oracles for the shared
// toolbox. The engine's one summary is internal/bloom's filter; it uses
// nothing of internal/strategy, internal/recon, internal/minwise or
// internal/recode.
//
// The §5.1 exact polynomial-reconciliation baseline (setrecon over the gf
// field) and the §4 random-sample and mod-k estimators (sampling) that
// earlier versions carried are gone: no figure driver and no engine path
// ever called them.
//
// # Exported: the §-by-§ simulator
//
// The paper's evaluation as the paper ran it, on symbol identities and
// rounds rather than sockets: Strategy, RunTransfer and
// TwoPeerScenario/MultiPeerScenario (internal/strategy and
// internal/transfer, Figures 5–8) and Overlay (internal/overlay, Figure
// 1). The figure drivers of internal/experiment — and through them
// cmd/icdbench and the root bench_test.go — drive these and nothing
// else.
//
// # Exported: the network engine
//
// The same mechanisms on real connections: Server, Fetch, Orchestrator,
// Gossip and ServerMux (internal/peer over internal/protocol and
// internal/peermux), Node and ContentStore (internal/node). cmd/icdnode,
// the scenario lab and the benchmark in bench/ drive these; the sections
// from "Receive-path model" on describe them.
//
// # Data-plane performance model
//
// Every delivered byte crosses the XOR-of-blocks data plane, so its cost
// model is kept explicit and benchmarked (bench_test.go's data-plane
// microbenchmarks for iterating; the per-layer rows of `bash
// bench/run.sh` for claims):
//
//   - XOR cost is one pass per symbol. internal/xorblock.XorGather sets
//     a payload to the XOR of all of a symbol's blocks at once: on amd64
//     with AVX2, the package's own assembly (32-byte loads, 128 bytes of
//     the payload a step, every source XORed in registers and the result
//     stored once); on every other CPU, a chain of crypto/subtle.XORBytes
//     calls with the same result. Encoding a symbol of degree d over
//     b-byte blocks reads d·b bytes and writes b, so with mean degree d̄
//     the fountain encode rate is memory-bound at roughly
//     bus-bandwidth/d̄; decode costs the same once per recovered block
//     (the symbol that resolves it, against its other neighbors), and
//     nothing for a symbol that arrives fully reduced or is resolved by
//     another. A source shorter than the payload panics, and the payload
//     may be exactly its first source but must overlap no other.
//
//   - A full sender answers a repeat fetch from memory. Every
//     peer.Server that holds the content keeps one cached prefix of one
//     fountain stream (ids and payloads in a slab log, up to 2·k
//     symbols). The first receiver that opens holding nothing is sent a
//     fresh stream and nothing is cached, so contents fetched once cost
//     no copy; the second such session caches what it sends. Later ones
//     are replayed the prefix, all at once if they come at once, then
//     continue on fresh streams of their own, when they announce the
//     listen address it was first sent to, or none if its first receiver
//     announced none: a relay holding prefix ids would have nothing for a
//     receiver being replayed them, so receivers that can exchange
//     symbols never share them. A receiver that holds symbols (a redial,
//     a fetch from a working set) never gets the prefix, so it is never
//     sent a repeat. serve.symbols_encoded over serve.symbols_sent is one
//     minus its hit rate: near 0 for a client that fetches its contents
//     again and again, 1 for contents fetched once, about 3/4 for four
//     addressed receivers of one content at a time, of which only the
//     prefix's first is replayed (peer.BenchmarkFetchFabricPipe,
//     ...PipeFresh, ...PipeConcurrent). Its price is memory, at most twice
//     the content per served content, typically about 1.1× (what one
//     fetch of the stream was sent); a node's store charges the bound.
//
//   - Steady-state symbol paths are zero-alloc. Encoder.Next/EncodeID,
//     Recoder.Next and the redundant-symbol paths of the decoders
//     recycle payload buffers or never take one (encoder/recoder
//     freelists fed by Release, the recode decoder's spare list fed by
//     fully-reduced symbols; the fountain.Decoder copies no payload) and reuse per-instance scratch for neighbor expansion and
//     sampling — prng.SampleIntsInto keeps even its dedup table for
//     degrees above 64 in the caller's buffer;
//     BenchmarkEncoderNextAllocs and BenchmarkRecoderNextAllocs assert
//     0 allocs/op. Frame writes go through a sync.Pool of serialization
//     buffers, one Write per frame — which a fabric channel turns into an
//     envelope in its pending batch (protocol.AppendMux into a pooled
//     buffer); a SYMBOL written to a channel (protocol.WriteSymbol on a
//     protocol.SymbolWriter) is framed straight into its envelope from
//     its id and payload, one copy and one CRC, so the symbols of one
//     REQUEST and the DONE behind them leave in one conn write, and the
//     wire's FrameReader reads ahead, so they arrive in one conn read:
//     per batch, not per frame (no batch passes 64 KiB).
//
//   - Summary probes avoid division. Bloom probes use the
//     Kirsch–Mitzenmacher pair with Lemire multiply-shift range
//     reduction (hashing.Reduce) instead of `% m`; min-wise sketches are
//     built permutation-major over a once-folded key slice
//     (minwise.Build), with incremental Add for mid-transfer updates.
//
// # Receive-path model (fold → peel)
//
// The receive side mirrors the send side's cost discipline. peer.Fetch
// runs one decoder — the plain single-core fountain.Decoder — behind two
// steps with one hop between the wire and the working set:
//
//   - Fold. The session that read a SYMBOL frame off its channel folds
//     it into the working set (an append-only log with an id index)
//     itself, on its own goroutine, under the orchestrator lock: an index
//     lookup and, for a new id, one payload copy. Nothing XORs here —
//     SYMBOL is the only symbol-bearing frame, so an arrival is a new id
//     or a duplicate. The one queue an arrival waits in is its
//     channel's. The working set is what reconciliation summaries, the
//     scheduler's Progress and a co-located live Server read, so its
//     freshness is the paper's trade: a summary built from a stale set
//     makes senders spend transmissions on symbols the receiver already
//     holds. Folding per arrival also makes the fold the one place an
//     arrival is classified — useful or a duplicate, against the working
//     set as it stands, and a duplicate by cause: the id was in the log
//     the session's last summary covered (peer.duplicates{cause=
//     before_summary}) or another sender brought it since
//     (cause=since_summary) — and makes progress exact the moment a batch
//     retires.
//   - Peel. One goroutine owns the fountain.Decoder outright (no shards,
//     no mailboxes, no lock around the XOR work) and follows the working
//     set's log with a cursor, decoding strictly in arrival order. It
//     holds no symbols of its own: its backlog is the distance between
//     its cursor and the log's end.
//
// The invariant between them: the fold never waits behind XOR work — it
// only tells the stage how far the log reaches — until the working set
// holds n symbols; from there completion is possible, and every fold
// that grows the log waits for the cursor to catch up, so the transfer
// ends at the symbol that completes it and the session reads nothing
// more off the wire (sessions folding at that moment can each put one
// more symbol into the log, none into the decoder). The stage stops
// decoding at the completing symbol, so FetchResult.DecodeOverhead is
// exactly a bare Decoder's on the same id sequence, and it ends the
// fetch itself.
//
// The decoder peels on ids and reads each payload once. A buffered
// symbol keeps a reference to its payload, its neighbor list, and the
// count and XOR of the neighbors still unknown, so a recovery costs each
// waiting symbol O(1) and a symbol down to one unknown names it; the
// symbol that resolves a block writes payload ⊕ its other neighbors'
// blocks straight into that block's slot of one n×blockSize content
// buffer, and Decoder.Content hands the content out without a final
// join. Its bookkeeping is arena-backed (buffered symbols values in one
// slice, neighbor lists runs of another, per-block waiter lists chains
// through a third), and NewDecoder sizes the arenas once, from n and the
// distribution's mean degree, so a decode allocates nothing in AddSymbol
// but the content buffer (fountain.TestDecoderSteadyStateAllocs).
//
// A fetch decodes on that one decoder, on its one peel goroutine. The
// internal fountain.ShardedDecoder is not on this path and not part of
// the public API: it is kept only for the benchmark's
// fountain.decode_sharded_ns_per_symbol row.
//
// Buffer ownership (who may Release what, when):
//
//   - Encoder/Recoder payloads: the caller that received a Symbol from
//     Next/EncodeID owns its buffers and gives them back with Release
//     exactly once, after its last use (a full sender's send loop
//     releases right after the frame write, once the cached prefix it is
//     extending has copied the payload into its own slab; a cached
//     payload is never written again and never Released). The
//     fountain.Decoder's
//     AddSymbol does not copy (next point).
//   - fountain.Decoder: AddSymbol never writes sym.Data but keeps it by
//     reference until that symbol resolves a block or decoding ends, so
//     the caller leaves it unchanged until Done (a payload fed to it is
//     not Released to an encoder). Its one buffer of its own is the
//     content, n×blockSize: recovered blocks are slots of it (they ARE
//     the output of Blocks and Content).
//   - Working-set payloads: the log owns what arrives. Its add (the
//     fold) copies a new symbol's payload into the free tail of the log's
//     current slab and appends a view of it clipped to its own length, so
//     an append to one payload cannot write its neighbour; from then on
//     nobody writes it. What a caller hands over up front
//     (FetchOptions.Initial, NewPartialServer) the log adopts instead:
//     it keeps the caller's own buffers, each clipped to its length, and
//     the caller must not modify them while the fetch or the server uses
//     them — the rule NewFullServer keeps for its content. A log's
//     slabs double, each as large as every earlier one together, from
//     64 KiB up to 1 MiB (a payload larger than that gets one of its
//     own). The peel stage hands it to the decoder, and a live Server's
//     sessions frame it onto their wires, outside the orchestrator lock
//     on the strength of that alone: a partial sender owns no symbol
//     buffers of its own, and the decoder copies none. A slab lives as
//     long as any payload in it: a caller that keeps one
//     FetchResult.Held payload keeps its whole slab alive, up to 1 MiB,
//     so one that keeps a few past the rest of the result should copy
//     them.
//   - protocol.FrameReader and peermux.Channel: a frame payload is a
//     borrowed view — into the reader's read-ahead buffer, or the
//     channel's pooled queue buffer — valid only until the next frame;
//     never Release or retain it. Parse it in place (SymbolView) and copy
//     out only what you keep. peer.Fetch keeps no receive pool: a session
//     folds the view, the fold copies what the working set keeps and
//     nothing of a duplicate, and there is nothing to give back.
//   - peermux.Channel.Write and WriteSymbol copy the frame into the
//     channel's pending batch, so the caller's buffer — an encoder
//     payload, a log entry — is free again when they return, whenever
//     the batch is written.
//
// With frame reads through FrameReader (or a channel's pooled queue) and
// parses through SymbolView, the receive loop performs 0 allocs per
// duplicate frame, as peer.TestReceivePathZeroAlloc and the fountain
// AllocsPerRun tests enforce. A *new* symbol's payload becomes a
// working-set entry: the content needs its bytes, not a heap object of
// its own, so the path allocates per slab — slabs that double up to
// 1 MiB, about ten for a fetch of 4096 symbols of 1400 B — once the first
// handshake has reserved the log's ids, payloads and index for n + n/8
// entries (peer.TestReceivePathZeroAlloc, peer.TestSlabsDouble). Serving
// is held to the same standard: a REQUEST to a warm full sender, or to a
// partial sender whose log did not grow, allocates nothing while the
// gossip directory has nothing new to relay
// (peer.TestRequestWithNoNewsZeroAlloc) — nor does a relay that has news,
// once its scratch is warm (peer.TestRelaySendAllocs) — and a summary that re-aims a
// partial sender's cursor over a log that did not grow allocates nothing
// either: the cursor sizes its queues and scratch to the log at its first
// summary and filters them in place (peer.TestCursorReaimZeroAlloc). peer.BenchmarkFetchFabricPipe
// is the whole path as one row (MB/s and allocs/symbol of a fabric fetch
// over an in-process pipe).
//
// # Control plane (sessions, orchestration, summaries)
//
// Above the data plane sits the adaptive swarm engine of internal/peer
// (Fetch is now a thin wrapper over it): an Orchestrator owning one
// download's shared state, and one session per connection.
//
// Session lifecycle. A session runs dial → HELLO exchange, the OPEN
// carrying the Bloom summary → batched request loop, in a redial loop
// (FetchOptions.MaxReconnects/ReconnectBackoff). It ends in one of
// four ways: the transfer completed; the peer stopped contributing
// (MaxUselessBatches of no global progress); the orchestrator dropped
// it (DropPeer, or lowest-utility eviction when AddPeer exceeds
// MaxPeers — utility is useful symbols per second of session life); or
// the connection failed terminally. Peers can be added and dropped
// mid-transfer; late joiners inherit the current working set's summary
// state automatically, since summaries are built from the shared set at
// handshake time.
//
// Summaries (protocol v12). An informed session that holds symbols puts a
// Bloom filter over the working set, 8 bits and 5 hashes per element
// (§5.2), in its OPEN (Hello.Summary), so a partial sender answers one
// batch of the OPEN's round behind its ACCEPT, aimed by it, and its
// first symbol arrives one round trip after the open (a full sender
// ignores it). A partial sender that reads summaries (its ACCEPT's mask
// bit) then gets SUMMARY frames as refreshes when what the receiver
// learned from other senders makes its last one stale, so it stops
// sending what they already delivered; a session that opened
// empty-handed sends its first summary the same way.
//
// Send once across senders (protocol v10). A summary keeps one sender
// from sending what the receiver holds, but two partial senders can still
// spend the same transmission on the same missing id. So every summary
// also names a slice of the id space (protocol.InSlice: a splitmix64 hash
// of the id, mod the slice count): a fetch's live partial sessions, in
// the order they joined (a session whose OPEN will carry a summary
// joins as it starts), hand their senders slices 0 … s−1 of s. A sender
// sends what the summary leaves missing in its own slice first,
// then the rest, so s senders start on disjoint ids and none of them
// learns what another holds. When a partial session joins or leaves, the
// slices close ranks and every other informed session sends one refresh
// with its new slice at its next batch boundary, however fresh its
// summary is; full senders, and sessions that have sent no summary yet,
// take no part. On partial_swarm this takes useful_ratio from 0.92 to 0.98.
//
// One refresh rule, on what the receiver learned. At a batch boundary a
// partial session re-summarizes once the ids other senders delivered
// since its last summary reach its even share of what the fetch still
// needs (or what it has in flight and the batch it asks for next, when
// that is more), or once the duplicates its sender sent that a fresher
// summary would have spared weigh as much as a summary. Its own sender's
// deliveries never count: the sender knows what it sent. The share
// shrinks as the fetch completes, so refreshes come rarely while a
// sender's queue is mostly news to the receiver and more often toward the
// end, and the second count prices the filter against the duplicates it
// spares; neither depends on how the scheduler interleaves batches. A
// refresh costs what changed at both ends: the fetch's one filter takes in
// the ids the log gained and is marshaled into a buffer the session
// keeps, and a sender that reads a summary of the same width and slice
// keeps its queue, testing each id against the latest filter as it is
// about to send it. No option tunes it: it is the rule every benchmark
// workload and every user's fetch runs, so the ledger's useful_ratio rows
// measure what a user's fetch does.
// peer.TestFreshReceiverNegotiatesSummaryMidTransfer and
// peer.TestGossipBootstrapFromSingleSeed run it in live swarms.
//
// Gossip discovery. Sessions announce their node's own
// dialable address (FetchOptions.AdvertiseAddr) in the HELLO, and both
// sides may volunteer capped, deduplicated PEERS frames: a session
// piggybacks them on its handshake and, to a partial sender, on every
// batch boundary, a server relays
// its accumulated directory ahead of each symbol batch. Both ends run one
// relay per connection, gated by generation: the directory's, and on a
// session also its fetch's session set's. A check when neither moved
// since the last complete send collects nothing and costs two atomic
// loads; one that collects appends into the relay's own scratch and
// writes each advertisement once per connection, at most MaxPeerAds a
// frame, the overflow on the next check (peer.TestSessionRelaysOnlyNews,
// peer.TestServerRelaysOnlyNews). Every address a
// node hears — through a session's PEERS frame or a client dialing its
// ServerMux — lands in one node-wide Gossip directory (shared via
// FetchOptions.Gossip and ServerMux.SetGossip; a bare ServerMux has one
// of its own) and flows into the orchestrator's admission path: admit
// immediately while MaxPeers has room; otherwise leave it in the
// directory, which is the one ranked list of whom to dial — deduplicated,
// capped, aged out, and ranked by how many independent peers vouched for
// the address, then first heard. When eviction or a session exit frees
// a slot, the directory's best entry for the content is promoted;
// addresses already attempted or banned are never admitted, and the
// node's own address is never dialed. A swarm bootstrapped from a single seed address
// (`icdnode node -fetch … -seed`) self-assembles the full mesh this way.
//
// Buffer ownership across the session/orchestrator boundary. There is
// nothing to own: a session hands each SYMBOL frame to
// Orchestrator.fold as a view into its channel's queue buffer, which
// dies at the session's next read. The fold, under the orchestrator
// lock, copies a new payload into the buffer the working set keeps (it
// becomes a log entry and, eventually, part of FetchResult.Held) and
// copies nothing of a duplicate; it charges the session's stats and
// tells the session whether the symbol was new and whether the fetch is
// still on. The peel stage, one goroutine that owns
// the fountain.Decoder outright, follows the log with a cursor and feeds
// the decoder the log's own payloads, which it reads in place and never
// copies, so the fold never waits behind XOR work until completion is
// possible, and the decoded content is the decoder's buffer itself
// (FetchResult.Data; nothing joins blocks at the end).
//
// The working set is an append-only log (internal/peer's symbolLog):
// ids in arrival order with payloads index-aligned beside them and an
// index from id to position. It never rewrites an entry and hands out a
// prefix of itself in O(1); a prefix taken under the orchestrator's lock
// stays valid outside it however far the log grows. Everything that
// reads the working set reads such a view — summary building, the peel
// stage's input, FetchResult.Held and a serving Server — and the log's
// length is its only version: Progress reports it, the refresh check
// compares it, and a serving session takes in what it gained.
//
// Collaboration (Figure 1(c)): a partial sender sends what it holds,
// once. A partial sender is one thing, a Server over a
// WorkingSetSource's log: NewPartialServer lays a fixed log out in id
// order, NewLiveServer takes one that is still growing — an Orchestrator
// implements the source — and both run the same serve loop. A serving
// session is a cursor on that log: per session a sent-bit per log
// position and a list of pending positions in send order. On a REQUEST
// it tests only the ids appended since the last one against the
// receiver's summary (everything is missing when there is none), queues
// the survivors behind what is pending in a per-session seeded order —
// the seed salted with the server's own address, so neither two sessions
// nor two fresh mirrors walk overlapping logs in step — and writes up to
// the requested count as plain SYMBOL frames straight from the log's
// payload buffers, then DONE, dropping unsent any queued id the latest
// summary holds; a cursor with nothing to send answers the DONE alone,
// the empty batch a receiver counts toward MaxUselessBatches. The OPEN's
// summary, a refresh whose filter the receiver rebuilt at another width,
// or one that moves the slice re-tests every unsent position, which
// keeps one filter's false positive from being permanent; a refresh of
// the same width only adds ids, so the send-time test is all it takes.
// A position once sent is never sent again on that session: the channel
// is reliable, and all a refresh has to prune is what other senders
// delivered. This is §6.1 taken at its word — with a membership summary
// "a partial sender can find symbols of guaranteed utility ... recoding
// is not generally necessary" — and it is why nearly every symbol a
// receiver is sent is useful (peer.TestPartialSwarmUsefulRatio, and the
// benchmark's useful_ratio on partial_swarm and collab_swarm). The
// recoding of §5.4.2 lives on in the simulator and the toolbox. A node
// that runs an Orchestrator and a live Server simultaneously both
// downloads and
// uploads the same content (`icdnode node -fetch`), which is the paper's
// perpendicular-transfer collaboration on the real network:
// complementary partial peers complete each other while trickling the
// remainder from a constrained source
// (peer.TestCollaborativeExchangeBeatsDownloadOnly measures the
// source-bandwidth savings).
//
// # Node and content store (multi-content)
//
// internal/node turns the one-content engine into a full overlay node:
// one process, one listener, one gossip directory, many working sets at
// different completion stages (the paper's end state). Three pieces
// compose over internal/peer:
//
//   - Content store (replica budget). Every replica the node serves and
//     every fetch in flight registers in a Store under one byte budget.
//     Past the budget, whole unpinned replicas evict in utility/LRU
//     order — the eviction score is demand hits per unit of age on the
//     store's access clock, so a replica nobody asks for goes first
//     however young, and a hot one survives. Pinned replicas
//     (operator-served content) and active fetches never evict; if only
//     those remain, the store reports over-budget rather than dropping
//     them. An evicted content's id leaves the listener, so new
//     handshakes naming it get the unknown-content answer.
//
//   - Single listener (HELLO routing). A ServerMux owns the accept loop
//     and reads each inbound HELLO itself, routing the connection to
//     the registered Server for its content id — a static full/partial
//     replica or the live server over an in-flight fetch's
//     orchestrator. Unknown ids are answered with the canonical
//     unknown-content ERROR (protocol.ReasonUnknownContent); receivers
//     surface it as the typed ErrUnknownContent and never redial — the
//     peer is healthy, it just lacks that content. Registration is
//     live: a fetch's working set is served as soon as its first
//     handshake fixes the metadata.
//
//   - Budgets (one even share). Concurrent fetches share the node-wide
//     gossip directory and split one connection budget
//     (Options.MaxConns) evenly: fetch i of n, in start order, gets n's
//     share of the total, the remainder one apiece to the earliest, and
//     at least one slot. The split is recomputed only when a fetch
//     starts or ends and applied live via Orchestrator.SetMaxPeers,
//     shrinking before growing so the combined live-session count never
//     overshoots. A housekeeping tick ages stale gossip entries out
//     (Gossip.Expire: an address nobody re-mentions is probably dead)
//     and re-enforces the store budget as live working sets grow.
//
// `icdnode node` runs one: serve and fetch any number of contents from
// one -listen address; the benchmark's multi_small workload measures a
// node fetching four contents at once over one wire.
//
// # Connection fabric (one wire per peer)
//
// internal/peermux is the one session transport: every content session
// a node runs against one peer is a subchannel of a single connection,
// so connection count is O(peers), not O(peers × contents). There is no
// other path — a lone Fetch builds a private fabric over its dialer (a
// wire with one channel), and peer.ServerMux, the one serving front
// door, accepts a MUX_HELLO or answers a clean ERROR and hangs up. A
// peer.Server is only a symbol source (full, partial or live) that the
// mux hands channels to.
//
// Wire layout: a connection opens with one MUX_HELLO exchange (channel
// capacity + dialable listen address). Each content transfer then
// negotiates a subchannel (OPEN_CHANNEL carries the opener's content
// HELLO; ACCEPT_CHANNEL answers with the content metadata,
// REJECT_CHANNEL reuses the canonical ERROR vocabulary). The dialer
// does not take turns over this: its MUX_HELLO and first OPEN_CHANNEL
// leave in one flight and its demux reader takes the answers, so a session is up one round trip after
// the dial (until the peer's MUX_HELLO announces its channel limit, one
// channel may be open on a wire). The OPEN's hello also carries the
// session's first round of requests (Hello.Batch, Hello.Depth), and a
// full sender answers it right behind its ACCEPT, clamped to what the
// session's decode still needs, with the ACCEPT's Depth saying how many
// batches that is: the first flight arrives in that same round trip.
// The receive side queues each channel's inbound frames back to back in
// pooled 64 KiB slabs. Every content frame travels inside a
// 3-byte MUX envelope — channel id + inner type — under the outer
// frame's CRC, so the per-channel state machines read and write plain
// content frames (PEERS gossip among them).
//
// What a connection holds: a wire keeps one channel table (a slice that
// starts in an array inside the wire) and a fixed ring of the ids it
// retired, and an open's answer rides its channel; a channel signals
// through a one-token ready channel and one done channel, and a blocked
// read borrows a pooled timer for the wait. A connection attempt is one
// context, a child of its session's, and one timer — the open's timeout
// and the stall watchdog — whose cancel also expires the channel's
// deadline. peermux's
// TestWireLifeAllocs pins a wire's whole life over net.Pipe at 50
// allocations, both ends counted; peer's TestConnectionAttemptAllocs a
// fetch over one fresh connection, the fetch's own orchestrator and
// decoder included, at 187.
//
// Request model: the receiver's own requests are the only flow control.
// A SYMBOL is allowed only when a REQUEST, or the OPEN's first round,
// asked for it; one nothing asked for is charged to the penalty box and
// dropped, and the wire survives. A slow decode stops asking, so it
// throttles only its own channel while siblings keep their throughput.
//
// Request depth: a decode of k blocks takes about k + ⌈4√k⌉ symbols
// from any mix of senders, so what a fetch has requested and not yet
// received, summed over its sessions, stays within what its decode
// still needs (at least one batch per session, and growing with the
// overshoot past k, so an unlucky stream takes two rounds, not many).
// Below that bound, sessions replace stop-and-wait (one request batch
// in flight, one RTT per batch) with K batches outstanding. The
// session's window, its fetch's and not its channel's, bounds the
// symbols in flight exactly,
// re-read at every batch boundary: a request asks for a batch, or for
// what the window has left when that is less, so a window smaller than
// a batch, or not a multiple of one, is asked for in smaller requests.
// The default window, 4096 frames, is a ceiling the need rather than
// the window shapes a flight under. The OPEN carries the first round,
// as many whole batches as the window holds, which a full sender
// answers behind its ACCEPT and a partial sender answers one batch of,
// aimed by the summary the OPEN carries. Under the cap K is measured, the same way for
// every sender: from 1, and on each batch asked for over an idle
// channel that came back full, 1 + ⌈rtt/service⌉ — the round trip to
// its first symbol over the time from there to its DONE, the batches
// one round trip holds at the rate a batch arrives. Deeper buys nothing
// and costs a partial sender freshness, since every batch in flight was
// aimed by an older summary (a window of at most one batch is
// stop-and-wait). A k=1024 fetch over a latency-bound link takes one
// round trip from a full sender, which sets the session up and carries
// what the decode needs, and a second for a stream that needs more,
// except on a repeat of content the sender has cached, whose first round
// carries the cached prefix up to its decode point
// (peer.TestWANFetchRoundTrips pins the count,
// peer.TestPrefixRepeatFetchOneRoundTrip the repeat; the benchmark's
// wan_rtt50 workload measures the goodput); from a partial sender it
// takes about four (peer.TestPartialSenderWANRoundTrips).
//
// Channel lifecycle and versions: a Fabric refcounts wires per address
// — the first Open dials and shakes hands, later Opens share the wire,
// the last Close tears it down. The library speaks exactly one wire
// version: an intact frame with any other version byte is
// protocol.ErrVersion (the byte sits under the CRC and is checked after
// it, so a corrupted one is protocol.ErrCorrupt — charged and redialled
// like any corruption; a frame checksummed the way versions up to 5 did,
// without the version byte, reads as ErrVersion under such a version
// byte), the server answers it with a clean ERROR, and the dialing
// session ends terminally on that first dial, uncharged. The version is
// 13, which retired the CREDIT frame (type 18, now an unexpected frame
// like any other): a version-12 sender would wait for grants this
// library no longer writes. protocol.Version's comment lists what each
// earlier version added.
//
// Windows are the node's second budget: on a latency-bound wire a
// session's window IS its throughput (about one window per round trip).
// node.Options.WindowBudget names a node-wide frame budget, split among
// the fetches in flight by the same even share as slots, at least one
// frame each, when a fetch starts or ends. A fetch's share reaches its
// sessions only through Orchestrator.SetChannelWindow, one atomic store
// that writes nothing to the wire, and each session reads it at its
// next batch boundary, so it never has more symbols requested and not
// yet received than its share.
// node.TestShareTable pins the rule, node.TestNodeWindowBudgetRebalance
// the shares through a real node, and the benchmark's multi_small
// workload runs under a WindowBudget.
package icd
