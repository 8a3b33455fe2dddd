// Command perfbench is the repository's benchmark: four end-to-end
// workloads over the simulator, the sweep fabric and the llserve ring,
// described by BENCHMARK.json at the repository root. It is a module of
// its own that builds against the parent module, so benchmarking code
// never ships in the simulator's packages. Because it is a separate
// module, `go test ./...` at the repository root does not reach it; run
// its tests with `cd perfbench && go test ./...`. Linux only: the pacer
// uses nanosleep with a 1 ns timer slack and peak memory comes from
// /proc/self/status.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload tourney --seed 1 --seconds 25 --trace 0
//
// run.sh builds the binary under .bench_build (or $CARGO_TARGET_DIR),
// with the Go build cache there too, and runs it. Each run prints one
// "workload metric value unit" line per metric and, as its last line, a
// JSON object with "correct", "attempted", "failed" and "metrics". It
// exits 1 when a correctness check fails. Without --workload it runs every
// workload, each in a fresh child process so memory and GC state stay per
// workload.
//
// --seconds (default: run_seconds of BENCHMARK.json) is the length of the
// whole run, set-ups included. A timed pass repeats its unit of work (a
// tournament, a sweep, a serve round) while the next repetition, with the
// set-ups timed after it, is expected to end in time, and makes at least
// two. Only the correctness checks after timing, a fraction of a second,
// run past it.
//
// --trace 1 prints the per-layer metrics instead of the end-to-end ones.
// The untraced pass then has half the run, and a traced pass of one unit
// of work follows it. The benchmark records a span around each call it
// makes into a layer's public functions (name, start, end, parent, point
// or request id), keeps the spans in memory, computes each span's self
// time (its duration minus the union of its children) and writes them as
// JSON lines to .bench_build/spans-<workload>.jsonl. Layer counters come
// from an obs.Recorder passed in the configs the layers already accept.
// End-to-end metrics always come from the untraced pass.
//
// To compare two commits, append runs of each to a results file and
// compare the files; the verdict per (workload, metric) pair applies the
// bound of BENCHMARK.json, and a regression exits 1:
//
//	bash perfbench/run.sh --workload serve-warm --seed 3 --record .bench_build/a.jsonl
//	bash perfbench/run.sh -compare .bench_build/a.jsonl .bench_build/b.jsonl
//
// A verdict is improved, unchanged or regressed when both sides' spread
// (quartile distance over median) is within the bound, and unresolved
// otherwise, unless every run of B beats every run of A. Metrics are
// taken from correct runs only, so each workload also gets a "failed"
// line with no bound: B regresses when any of its runs is incorrect or
// did not finish, when its share of failed operations is above A's, or
// when it has no runs where A has some.
//
// # Workloads
//
// Each workload derives all of its inputs from --seed; the programs under
// test see only generated inputs.
//
//   - tourney: scenarios/tournament.json at paper scale, 5 policies by 5
//     workload families, 64 nodes and a 16-machine by 7-day trace corpus
//     per cell, run serially cell by cell with scenario.Run(1), then Rank,
//     EncodeTournament and ValidateTournamentReport. It is the simulator
//     stack with no network and no cache: trace synthesis (about 80% of
//     the time), cluster placement and the node model. It bypasses the
//     fabric, llserve and the ring.
//   - sweep-fabric: 300 node-kind specs over the full Figure 5 grid (3
//     context switches by 20 utilizations, 200 simulated seconds, about
//     0.13 ms a point), 18 000 points per sweep, through fabric.Run
//     against 2 in-process loopback agents with one point in flight each.
//     Fine-grain points make RPC, gob and slot scheduling weigh beside the
//     node burst loop and variate sampling. It bypasses trace synthesis
//     and the cluster simulator.
//   - serve-cold: a 3-replica llserve ring in this process, every request
//     distinct: node (200 s), small cluster (8 nodes, 2 machines by 1 day)
//     and quick node scenario in turn. This is the write path: admission,
//     simulation, encoding and cache fill. A third of the requests go to
//     the replica that owns their cache key and two thirds one proxy hop
//     away, exactly: the benchmark computes ownership with ring.Owner on a
//     ring built like the replicas', whose layout hashes their ports. The
//     decide endpoint is left out: it is computed inline, never cached or
//     routed, and at a quarter of the mix it put the median on the gap
//     between fast and slow kinds.
//   - serve-warm: the same ring after 48 distinct requests are filled
//     during set-up, so every timed request is served from the cache: the
//     read path of decode, canonical form, CacheKey SHA-256, ring
//     ownership, proxy hop and lookup, with no simulation. A faster
//     simulator must show no change here.
//
// A serve pass is a series of rounds, each a 2 s open-loop segment at a
// fixed rate followed by one closed-loop batch; rounds spread both
// measurements over the whole pass, since the speed of a shared machine
// drifts over seconds. p50_ms, tail_ms and wall_s of a serve workload come
// from the half of its rounds in which the host stole the least CPU time
// (steal in /proc/stat): open-loop latency on a shared virtual machine
// follows the steal of the moment, and rounds are chosen by steal, never
// by their own latency. The open loop paces requests from one goroutine and
// times each from its due time, so a stall counts against every request
// it delays. The rates, 250 req/s (serve-cold) and 2 500 req/s
// (serve-warm), are fixed at about a third and a fifth of the closed-loop
// capacity with 2 connections measured on a 2-CPU machine (about 750 and
// 14 000 req/s): high enough to queue, low enough that the machine's
// drift never grows a backlog. The load is sized for 2 CPUs: one pacing
// goroutine, 2 client connections, one point in flight per fabric agent,
// GOMAXPROCS at its default.
//
// # End-to-end metrics
//
//   - setup_s: the median set-up of the run: the one the pass uses and
//     those of a second instance, timed before the first unit of work and
//     after each unit so that they spread over the run, each on a freshly
//     collected heap. tourney: spec decode and
//     expansion. sweep-fabric: spec decode and expansion plus agent
//     listen, dial and ping. serve-cold: ring boot and readiness.
//     serve-warm: the same plus the 48-request fill.
//   - wall_s: median time of one unit of work. tourney: one tournament,
//     spec in to validated report out. sweep-fabric: one 18 000-point
//     sweep. serve-*: one closed-loop batch (500 cold or 5 000 warm
//     requests over 2 connections), the inverse of capacity.
//   - p50_ms and tail_ms: latency per item, the median and p99, or p80
//     where p99 has fewer than ten items above it. tourney: one cell (25
//     per tournament, so the tail is p80). sweep-fabric: one point's
//     executor call on an agent (p99). serve-*: one open-loop request from
//     its due time (p99), over the quieter half of the rounds (see below);
//     a failed request counts as infinitely late.
//   - peak_rss_mb: the process's peak resident set (VmHWM).
//
// Failed operations (failed points, transport errors, non-200 answers)
// are the "failed" field of the result, over "attempted".
//
// # Per-layer metrics
//
// Counts are per unit of work (tournament, sweep); a layer the workload
// does not cross reads 0. stats.sample_ns is a probe that runs in every
// traced run.
//
//   - scenario.expand_ms: median spec decode and expansion.
//     scenario.rank_ms: Rank, encode and validate per tournament.
//   - trace.synth_s, trace.synth_share: self time in trace.GenerateCorpus
//     per tournament, and its share of the traced wall time.
//   - cluster.run_s: self time in cluster.Run per tournament;
//     cluster.placements and cluster.migrations from the cluster counters.
//   - sim.events: events the discrete-event engine fired (0 on every
//     workload: the batch cluster simulator steps windows, not engine
//     events, so the benchmark times no engine dispatch).
//   - node.serve_s: self time in node.ServeForeign over one sweep's
//     points recomputed locally (each recomputed point must equal the
//     fabric's bytes); node.ns_per_sim_s per simulated second;
//     node.preemptions per sweep or tournament.
//   - stats.sample_ns: HyperExp2.SampleInto per variate over the default
//     table's fits; stats.sample_share: the estimated share of
//     ServeForeign spent drawing variates, two variates per preemption.
//   - fabric.task_s: executor time per sweep, timed by wrapping the
//     built-in task registry given to the agents; fabric.dispatch_us:
//     (wall x slots - task time) / points; fabric.slot_idle_share: the
//     same as a share of slot time; fabric.useful_ratio: completed over
//     dispatched; fabric.requeued per sweep.
//   - serve.decode_us, serve.cachekey_us: DecodeRequest and CacheKey per
//     call on the pass's distinct request bodies.
//     serve.cache_hit_ratio over serve.cache_lookups (its base),
//     serve.dedup_waits and serve.shed: replica counters over the pass.
//   - serve.owner_p50_ms, serve.proxied_p50_ms, serve.proxy_hop_ms:
//     open-loop service time (reply minus send) of requests sent to the
//     owner of their key and of proxied ones, and the difference.
//   - ring.owner_ns: ring.Owner per call; ring.proxy_share: requests the
//     replicas proxied over requests sent (2/3 by construction).
//   - loadgen.lag_p99_ms: the pacer's p99 lateness in the untraced pass;
//     a pass above 50 ms fails its checks, because it did not offer the
//     load it claims.
//   - trace_overhead_share: traced over untraced wall_s, minus one.
//
// The end-to-end metric and workload each per-layer metric should move
// are listed in layerTargets.
//
// # Correctness checks
//
// Applied after timing; any failure makes "correct" false. The traced
// decompositions repeat, call for call, what scenario.Task does for a
// cluster or node point; the byte checks below are what catch a change
// to those internals that the decomposition does not follow.
//
//   - tourney: the report validates, no cell is incomplete, every report
//     of the run has the same bytes, the traced decomposition included,
//     and the seed-1 paper-scale report has the pinned digest.
//   - sweep-fabric: every point completed, every sweep has the same
//     bytes, every 50th point (and the last) equals a local scenario.Task,
//     and in the traced pass every point equals its local decomposition.
//   - serve-*: every response is 200; a seeded sample of serve-cold
//     responses and all serve-warm fill responses equal a single-replica
//     reference server's; every serve-warm response equals its fill
//     response; the traced pass sees only cache misses on serve-cold and
//     only hits on serve-warm.
package main
