package obs

// MetricKind distinguishes the three metric types in the catalog.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"   // monotonically increasing count
	KindGauge     MetricKind = "gauge"     // last-write-wins value
	KindHistogram MetricKind = "histogram" // value distribution
)

// Def describes one catalogued metric. Help is the one-line meaning that
// OBSERVABILITY.md must reproduce (names_test.go cross-references the two).
type Def struct {
	Name string
	Kind MetricKind
	Help string
}

// Metric base names. Labeled variants (e.g. "cluster.migrations{policy=LL}")
// share the base name's catalog entry.
const (
	// Simulation runs (internal/cluster). The sim. prefix predates the
	// removal of the discrete-event engine; the names stay so existing
	// metrics dumps and readers keep working.
	SimEventsFired = "sim.events.fired" // counter
	SimRunSeconds  = "sim.run_seconds"  // histogram

	// Node scheduler (internal/node).
	NodePreemptions = "node.preemptions" // counter

	// Trace synthesis caused by cluster runs (internal/trace, recorded
	// through cluster.Config.Rec).
	TraceSamplesAdvanced = "trace.samples.advanced" // counter
	TraceSamplesFilled   = "trace.samples.filled"   // counter

	// Cluster policies (internal/cluster); labeled {policy=LL|LF|IE|PM}.
	ClusterCompletions = "cluster.completions" // counter
	ClusterMigrations  = "cluster.migrations"  // counter
	ClusterEvictions   = "cluster.evictions"   // counter
	ClusterLingers     = "cluster.lingers"     // counter
	ClusterPlacements  = "cluster.placements"  // counter

	// BSP parallel-job simulator (internal/parallel).
	BSPPhases = "bsp.phases" // counter

	// §7 coordinator/agent runtime (internal/runtime).
	RPCAttempts      = "runtime.rpc.attempts"       // counter
	RPCRetries       = "runtime.rpc.retries"        // counter
	RPCTimeouts      = "runtime.rpc.timeouts"       // counter
	RPCCorruptFrames = "runtime.rpc.corrupt_frames" // counter
	RPCDedupHits     = "runtime.rpc.dedup_hits"     // counter
	AgentsSuspected  = "runtime.agents.suspected"   // counter
	AgentsDead       = "runtime.agents.dead"        // counter
	JobsRecovered    = "runtime.jobs.recovered"     // counter
	DuplicatesReaped = "runtime.duplicates.reaped"  // counter

	// Checkpoint store (internal/checkpoint).
	CheckpointSaves          = "checkpoint.saves"           // counter
	CheckpointRestores       = "checkpoint.restores"        // counter
	CheckpointSaveSeconds    = "checkpoint.save_seconds"    // histogram
	CheckpointRestoreSeconds = "checkpoint.restore_seconds" // histogram

	// Experiment runner (internal/exp); figure gauges labeled {figure=...}.
	ExpPointsComputed = "exp.points.computed" // counter
	ExpPointsRestored = "exp.points.restored" // counter
	ExpPointsRetried  = "exp.points.retried"  // counter
	ExpPointSeconds   = "exp.point_seconds"   // histogram
	ExpFigureSeconds  = "exp.figure_seconds"  // gauge

	// HTTP scheduling service (internal/serve); request metrics labeled
	// {endpoint=cluster|node|decide}.
	ServeRequests       = "serve.requests"        // counter
	ServeBadRequests    = "serve.bad_requests"    // counter
	ServeShed           = "serve.shed"            // counter
	ServeCacheHits      = "serve.cache.hits"      // counter
	ServeCacheMisses    = "serve.cache.misses"    // counter
	ServeCacheEvictions = "serve.cache.evictions" // counter
	ServeDedupWaits     = "serve.dedup.waits"     // counter
	ServeQueueDepth     = "serve.queue.depth"     // gauge
	ServeRequestSeconds = "serve.request_seconds" // histogram

	// Consistent-hash replica ring (llserve cluster mode; the ring
	// arithmetic lives in internal/ring, the counters in internal/serve).
	RingEpoch       = "ring.epoch"        // gauge
	RingMembersLive = "ring.members.live" // gauge
	RingFailovers   = "ring.failovers"    // counter
	RingRejoins     = "ring.rejoins"      // counter

	// Cross-replica request proxying (internal/serve cluster mode).
	ServeProxySent      = "serve.proxy.sent"      // counter
	ServeProxyServed    = "serve.proxy.served"    // counter
	ServeProxyErrors    = "serve.proxy.errors"    // counter
	ServeProxyFallbacks = "serve.proxy.fallbacks" // counter
	ServeProxyRejects   = "serve.proxy.rejects"   // counter

	// Distributed sweep fabric (internal/fabric).
	FabricPointsDispatched  = "fabric.points.dispatched"  // counter
	FabricPointsCompleted   = "fabric.points.completed"   // counter
	FabricPointsRestored    = "fabric.points.restored"    // counter
	FabricPointsRequeued    = "fabric.points.requeued"    // counter
	FabricAgentsSuspected   = "fabric.agents.suspected"   // counter
	FabricAgentsDead        = "fabric.agents.dead"        // counter
	FabricAgentsResurrected = "fabric.agents.resurrected" // counter

	// Declarative scenario layer (internal/scenario).
	ScenarioPointsExpanded = "scenario.points.expanded" // counter
	ScenarioRuns           = "scenario.runs"            // counter
	ScenarioTournaments    = "scenario.tournaments"     // counter

	// Whole-process (set once by the CLI layer at exit).
	RunWallSeconds = "run.wall_seconds" // gauge
)

// Catalog is the complete list of metrics this repository can emit.
// Registry methods panic on any base name not listed here, and
// names_test.go asserts every entry appears in OBSERVABILITY.md — together
// those two checks make "every metric emitted by the code is documented"
// a build-time property rather than a review convention.
var Catalog = []Def{
	{SimEventsFired, KindCounter, "Poisson arrivals fired by the open-system extension"},
	{SimRunSeconds, KindHistogram, "final simulated time of each simulation run, seconds of sim time"},
	{NodePreemptions, KindCounter, "foreign-job preemptions by a returning local burst (context-switch charges, §3)"},
	{TraceSamplesAdvanced, KindCounter, "trace samples the generator stepped through without storing, to reach a block a cluster run read"},
	{TraceSamplesFilled, KindCounter, "trace samples the generator synthesized and stored because a cluster run read their block"},
	{ClusterCompletions, KindCounter, "foreign jobs completed, per policy"},
	{ClusterMigrations, KindCounter, "job migrations started, per policy (Tmigr charges, §2)"},
	{ClusterEvictions, KindCounter, "jobs evicted back to the queue by an owner's return, per policy"},
	{ClusterLingers, KindCounter, "linger decisions (job stays through an owner burst), per policy"},
	{ClusterPlacements, KindCounter, "queued jobs placed onto a node, per policy"},
	{BSPPhases, KindCounter, "BSP compute/communicate phases completed across all parallel jobs"},
	{RPCAttempts, KindCounter, "RPC attempts issued by the coordinator (first tries and retries)"},
	{RPCRetries, KindCounter, "RPC retries after a transport error"},
	{RPCTimeouts, KindCounter, "RPC attempts that timed out"},
	{RPCCorruptFrames, KindCounter, "RPC replies rejected as corrupt frames"},
	{RPCDedupHits, KindCounter, "duplicate RPCs suppressed by agent sequence-number dedup (at-most-once)"},
	{AgentsSuspected, KindCounter, "agent health transitions into the suspect state"},
	{AgentsDead, KindCounter, "agent health transitions into the dead state"},
	{JobsRecovered, KindCounter, "jobs recovered from dead agents and requeued"},
	{DuplicatesReaped, KindCounter, "stale duplicate jobs reaped when an agent resurrected"},
	{CheckpointSaves, KindCounter, "checkpoint snapshots written"},
	{CheckpointRestores, KindCounter, "checkpoint snapshots read back"},
	{CheckpointSaveSeconds, KindHistogram, "wall-clock latency of each checkpoint write, seconds"},
	{CheckpointRestoreSeconds, KindHistogram, "wall-clock latency of each checkpoint read, seconds"},
	{ExpPointsComputed, KindCounter, "sweep points computed fresh by the experiment runner"},
	{ExpPointsRestored, KindCounter, "sweep points restored from a checkpoint instead of recomputed"},
	{ExpPointsRetried, KindCounter, "sweep point attempts retried after a transient failure"},
	{ExpPointSeconds, KindHistogram, "wall-clock per sweep point, seconds"},
	{ExpFigureSeconds, KindGauge, "wall-clock of one figure/table step, seconds, labeled {figure=...}; -timing reads these back"},
	{ServeRequests, KindCounter, "HTTP simulation requests accepted for processing, per endpoint"},
	{ServeBadRequests, KindCounter, "HTTP requests rejected with 400 (malformed JSON, out-of-range params, oversized bodies)"},
	{ServeShed, KindCounter, "HTTP requests shed with 429 because the admission queue was full"},
	{ServeCacheHits, KindCounter, "simulation requests answered from the content-addressed result cache"},
	{ServeCacheMisses, KindCounter, "simulation requests that had to compute a fresh result"},
	{ServeCacheEvictions, KindCounter, "cached results evicted by the LRU policy at capacity"},
	{ServeDedupWaits, KindCounter, "requests coalesced onto an identical in-flight computation (singleflight dedup)"},
	{ServeQueueDepth, KindGauge, "admission tickets currently held (requests queued or executing)"},
	{ServeRequestSeconds, KindHistogram, "wall-clock HTTP request latency, seconds, per endpoint"},
	{RingEpoch, KindGauge, "current ring epoch: the replica's version of the live set, raised on every liveness transition and by adoption from peers"},
	{RingMembersLive, KindGauge, "replicas this process currently routes to (live ring members, including itself)"},
	{RingFailovers, KindCounter, "replicas removed from the routing ring after being declared dead (their key ranges fail over to ring successors)"},
	{RingRejoins, KindCounter, "dead replicas re-admitted to the routing ring by a successful probe"},
	{ServeProxySent, KindCounter, "requests forwarded to the key's owning replica (one hop, never chained)"},
	{ServeProxyServed, KindCounter, "proxied requests accepted from a peer replica and answered locally"},
	{ServeProxyErrors, KindCounter, "proxy attempts that failed (transport error, timeout, or non-200 peer answer)"},
	{ServeProxyFallbacks, KindCounter, "requests computed locally after proxying to the owner failed or was skipped (owner unhealthy)"},
	{ServeProxyRejects, KindCounter, "incoming proxied requests rejected with 421 (ring digest mismatch or stale ring epoch)"},
	{FabricPointsDispatched, KindCounter, "sweep points handed to a fabric slot worker (first dispatches and re-dispatches)"},
	{FabricPointsCompleted, KindCounter, "unique sweep points completed by fabric agents"},
	{FabricPointsRestored, KindCounter, "sweep points restored from the checkpoint store instead of dispatched"},
	{FabricPointsRequeued, KindCounter, "dispatches returned to the fabric queue after a transient transport failure"},
	{FabricAgentsSuspected, KindCounter, "fabric agent health transitions into the suspect state"},
	{FabricAgentsDead, KindCounter, "fabric agent health transitions into the dead state"},
	{FabricAgentsResurrected, KindCounter, "dead fabric agents brought back into rotation by a successful probe"},
	{ScenarioPointsExpanded, KindCounter, "sweep points produced by scenario-spec expansion"},
	{ScenarioRuns, KindCounter, "scenario points computed by the in-process scenario runner"},
	{ScenarioTournaments, KindCounter, "policy-tournament reports assembled"},
	{RunWallSeconds, KindGauge, "total wall-clock of the whole command run, seconds"},
}

// catalogByName indexes Catalog for the Registry's name check.
var catalogByName = func() map[string]Def {
	m := make(map[string]Def, len(Catalog))
	for _, d := range Catalog {
		if _, dup := m[d.Name]; dup {
			panic("obs: duplicate catalog entry " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()
