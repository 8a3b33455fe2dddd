// Package bench defines the machine-readable benchmark snapshot format
// (BENCH_<n>.json) and the tooling around it: strict validation, discovery
// of the latest committed snapshot, the CI regression gate, and the
// Markdown rendering the README results table is generated from.
//
// A snapshot is produced by cmd/llbench, the node gate, and records one
// run of the node burst-loop microbenchmark with the retained per-burst
// reference as its baseline. The end-to-end benchmark is perfbench, which
// keeps its own results; the cluster and serve blocks here are read only
// from the snapshots that recorded them (BENCH_006, BENCH_007). Snapshots
// are committed at the repository root as BENCH_001.json,
// BENCH_002.json, … so the sequence forms a benchmark trajectory: every
// performance-relevant PR appends one file, and the trajectory is
// diffable, plottable, and gatable. BENCHMARKS.md documents the workflow.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion is the current snapshot schema. Validate rejects any other
// value: a schema change must bump this constant and document the
// migration in BENCHMARKS.md.
const SchemaVersion = 1

// GateTolerance is the relative regression the CI gate accepts on the
// gated metrics (node ns/sim-s, allocs/op and speedup over the reference)
// before failing the build.
const GateTolerance = 0.15

// Snapshot is one benchmark run: the unit of the trajectory.
type Snapshot struct {
	SchemaVersion int `json:"schemaVersion"`
	ID            int `json:"id"` // the <n> of BENCH_<n>.json
	// Seed and Quick are the master seed and -quick mode of the retired
	// cluster and serve suites. They stay so BENCH_006 and BENCH_007 load
	// under DisallowUnknownFields; llbench leaves them unset.
	Seed      int64  `json:"seed,omitempty"`
	Quick     bool   `json:"quick,omitempty"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Notes is free-form context for the trajectory reader, typically the
	// PR that produced the snapshot and what changed.
	Notes string `json:"notes,omitempty"`

	// Engine, Cluster and Serve are the retired suites, recorded by
	// BENCH_006 and BENCH_007. They are optional (pointers, omitted when
	// absent) so those snapshots still load and render under the same
	// schema version, while new snapshots leave them out.
	Engine  *EngineSuite  `json:"engine,omitempty"`
	Cluster *ClusterSuite `json:"cluster,omitempty"`
	Serve   *ServeSuite   `json:"serve,omitempty"`

	// Node is the fine-grain burst-loop microbenchmark, added with
	// BENCH_007. The field is optional (a pointer, omitted when absent) so
	// earlier snapshots still load under the same schema version: adding
	// an optional field is an additive change, not a migration. The gate
	// requires it on both sides.
	Node *NodeSuite `json:"node,omitempty"`
}

// NodeSuite is the node hot-path microbenchmark: one workstation serving
// an unbounded foreign job across a fixed simulated span at a mixed
// utilization, run on the batched fast path (node.Node with stream
// lookahead) and on the retained per-burst reference (node.RefNode), which
// is the pre-rewrite implementation — so SpeedupVsRef is the like-for-like
// gain of the burst-loop rewrite, measured within one process.
type NodeSuite struct {
	// SimSecondsPerOp is the simulated span served per benchmark iteration.
	SimSecondsPerOp float64 `json:"simSecondsPerOp"`
	// NsPerSimSecond is wall nanoseconds per simulated second on the fast
	// path; SimSecPerWallSec is its reciprocal throughput form.
	NsPerSimSecond   float64 `json:"nsPerSimSecond"`
	SimSecPerWallSec float64 `json:"simSecPerWallSec"`
	AllocsPerOp      float64 `json:"allocsPerOp"`
	RefNsPerSimSec   float64 `json:"refNsPerSimSec"`
	SpeedupVsRef     float64 `json:"speedupVsRef"`
}

// EngineSuite is the event-dispatch microbenchmark of the discrete-event
// engine the repository once carried: a self-rescheduling handler stepped
// by a calendar-queue scheduler and, as the baseline, by a binary-heap
// scheduler. The engine is gone; the type stays so the snapshots that
// recorded it remain readable.
type EngineSuite struct {
	NsPerEvent      float64 `json:"nsPerEvent"`
	EventsPerSec    float64 `json:"eventsPerSec"`
	BytesPerOp      float64 `json:"bytesPerOp"`
	AllocsPerOp     float64 `json:"allocsPerOp"`
	HeapNsPerEvent  float64 `json:"heapNsPerEvent"`
	HeapAllocsPerOp float64 `json:"heapAllocsPerOp"`
	SpeedupVsHeap   float64 `json:"speedupVsHeap"`
}

// ClusterSuite is the retired Figure 7-style batch run: NumJobs foreign
// jobs submitted at t=0 on a cluster, simulated to family completion. The
// latency metrics are over per-job completion times in simulated seconds;
// WallSeconds is the real time the simulation took. perfbench's tourney
// workload now measures cluster runs end to end.
type ClusterSuite struct {
	Nodes           int     `json:"nodes"`
	Jobs            int     `json:"jobs"`
	Policy          string  `json:"policy"`
	MeanCompletionS float64 `json:"meanCompletionS"` // simulated seconds
	P95CompletionS  float64 `json:"p95CompletionS"`  // simulated seconds
	LocalDelay      float64 `json:"localDelay"`      // owner slowdown ratio
	WallSeconds     float64 `json:"wallSeconds"`
	JobsPerSec      float64 `json:"jobsPerSec"` // completed jobs per wall second
}

// ServeSuite is the retired llserve warm/cold request mix: the same seeded
// request stream was replayed twice against one in-process server, so Cold
// measures simulate-and-fill and Warm measures cache hits. Because
// responses are pure functions of the canonical request, the two phases'
// result digests must match — DigestsMatch records that check and
// Validate enforces it. perfbench's serve-cold and serve-warm workloads
// now measure the service end to end.
type ServeSuite struct {
	Requests     int        `json:"requests"` // per phase
	Concurrency  int        `json:"concurrency"`
	Mix          string     `json:"mix"`
	Cold         ServePhase `json:"cold"`
	Warm         ServePhase `json:"warm"`
	DigestsMatch bool       `json:"digestsMatch"`
}

// ServePhase is one replay of the request stream.
type ServePhase struct {
	ReqPerSec    float64 `json:"reqPerSec"`
	MeanLatencyS float64 `json:"meanLatencyS"`
	P95LatencyS  float64 `json:"p95LatencyS"`
	Errors       int     `json:"errors"`
	Digest       string  `json:"digest"` // sha256 over (index, status, body-hash)
}

// Validate checks the snapshot strictly: it must carry at least one suite,
// every metric a downstream consumer (the gate, the README table) reads
// in a suite it carries must be present and plausible, and a serve
// suite's determinism invariants (no errors, matching digests) must hold.
// A snapshot that fails Validate must not be committed.
func (s *Snapshot) Validate() error {
	if s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schemaVersion %d, want %d", s.SchemaVersion, SchemaVersion)
	}
	if s.ID < 1 {
		return fmt.Errorf("bench: id must be >= 1, got %d", s.ID)
	}
	if s.GoVersion == "" || s.GOOS == "" || s.GOARCH == "" {
		return errors.New("bench: goVersion/goos/goarch must be recorded")
	}
	if s.Engine == nil && s.Node == nil && s.Cluster == nil && s.Serve == nil {
		return errors.New("bench: snapshot carries no suite")
	}
	if e := s.Engine; e != nil {
		switch {
		case e.NsPerEvent <= 0:
			return fmt.Errorf("bench: engine.nsPerEvent must be positive, got %g", e.NsPerEvent)
		case e.EventsPerSec <= 0:
			return fmt.Errorf("bench: engine.eventsPerSec must be positive, got %g", e.EventsPerSec)
		case e.BytesPerOp < 0 || e.AllocsPerOp < 0:
			return errors.New("bench: engine bytes/allocs per op must be non-negative")
		case e.HeapNsPerEvent <= 0:
			return fmt.Errorf("bench: engine.heapNsPerEvent must be positive, got %g", e.HeapNsPerEvent)
		case e.SpeedupVsHeap <= 0:
			return fmt.Errorf("bench: engine.speedupVsHeap must be positive, got %g", e.SpeedupVsHeap)
		}
	}
	if c := s.Cluster; c != nil {
		switch {
		case c.Nodes <= 0 || c.Jobs <= 0:
			return fmt.Errorf("bench: cluster nodes/jobs must be positive, got %d/%d", c.Nodes, c.Jobs)
		case c.Policy == "":
			return errors.New("bench: cluster.policy must be recorded")
		case c.MeanCompletionS <= 0 || c.P95CompletionS <= 0:
			return errors.New("bench: cluster completion latencies must be positive")
		case c.WallSeconds <= 0:
			return errors.New("bench: cluster.wallSeconds must be positive")
		}
	}
	if n := s.Node; n != nil {
		switch {
		case n.SimSecondsPerOp <= 0:
			return fmt.Errorf("bench: node.simSecondsPerOp must be positive, got %g", n.SimSecondsPerOp)
		case n.NsPerSimSecond <= 0 || n.SimSecPerWallSec <= 0:
			return errors.New("bench: node throughput metrics must be positive")
		case n.AllocsPerOp < 0:
			return errors.New("bench: node.allocsPerOp must be non-negative")
		case n.RefNsPerSimSec <= 0:
			return fmt.Errorf("bench: node.refNsPerSimSec must be positive, got %g", n.RefNsPerSimSec)
		case n.SpeedupVsRef <= 0:
			return fmt.Errorf("bench: node.speedupVsRef must be positive, got %g", n.SpeedupVsRef)
		}
	}
	if v := s.Serve; v != nil {
		if v.Requests <= 0 || v.Concurrency <= 0 {
			return fmt.Errorf("bench: serve requests/concurrency must be positive, got %d/%d", v.Requests, v.Concurrency)
		}
		for _, ph := range []struct {
			name string
			p    *ServePhase
		}{{"cold", &v.Cold}, {"warm", &v.Warm}} {
			switch {
			case ph.p.ReqPerSec <= 0:
				return fmt.Errorf("bench: serve.%s.reqPerSec must be positive, got %g", ph.name, ph.p.ReqPerSec)
			case ph.p.MeanLatencyS <= 0 || ph.p.P95LatencyS <= 0:
				return fmt.Errorf("bench: serve.%s latencies must be positive", ph.name)
			case ph.p.Errors != 0:
				return fmt.Errorf("bench: serve.%s recorded %d errors; a committed snapshot must be error-free", ph.name, ph.p.Errors)
			case !strings.HasPrefix(ph.p.Digest, "sha256:"):
				return fmt.Errorf("bench: serve.%s.digest %q must start with sha256:", ph.name, ph.p.Digest)
			}
		}
		if !v.DigestsMatch {
			return errors.New("bench: serve cold/warm digests differ — the cached==fresh contract is broken")
		}
		if v.Cold.Digest != v.Warm.Digest {
			return errors.New("bench: digestsMatch is set but the recorded digests differ")
		}
	}
	return nil
}

// Compare checks cur against base on the gated metrics and returns one
// human-readable violation per regression beyond GateTolerance. The gate
// covers the node burst loop, the simulators' hot path: wall time per
// simulated second may not grow more than 15%; allocation discipline
// (allocs/op may not grow more than 15%, with a half-alloc absolute grace
// so a zero-alloc baseline doesn't trip on measurement noise); and the
// speedup over the per-burst reference may not drop more than 15%. That
// last ratio is measured within one process, so it holds on a slower
// machine where the absolute floor cannot. A snapshot without a node
// suite on either side is itself a violation, so the gate never passes
// vacuously. The node suite is all llbench measures now; end-to-end
// cluster and serve costs are perfbench's, whose workloads carry their
// own bounds. The retired blocks of older snapshots are never gated.
func Compare(base, cur *Snapshot) []string {
	var bad []string
	if base.Node == nil {
		bad = append(bad, fmt.Sprintf("baseline %s has no node suite to gate on", Filename(base.ID)))
	}
	if cur.Node == nil {
		bad = append(bad, fmt.Sprintf("current %s has no node suite to gate on", Filename(cur.ID)))
	}
	if len(bad) > 0 {
		return bad
	}
	b, c := base.Node, cur.Node
	tol := int(GateTolerance * 100)
	if ceil := b.NsPerSimSecond * (1 + GateTolerance); c.NsPerSimSecond > ceil {
		bad = append(bad, fmt.Sprintf(
			"node.nsPerSimSecond regressed: %.3g > %.3g (baseline %.3g + %d%%)",
			c.NsPerSimSecond, ceil, b.NsPerSimSecond, tol))
	}
	if ceil := b.AllocsPerOp*(1+GateTolerance) + 0.5; c.AllocsPerOp > ceil {
		bad = append(bad, fmt.Sprintf(
			"node.allocsPerOp regressed: %.3g > %.3g (baseline %.3g + %d%% + 0.5)",
			c.AllocsPerOp, ceil, b.AllocsPerOp, tol))
	}
	if floor := b.SpeedupVsRef * (1 - GateTolerance); c.SpeedupVsRef < floor {
		bad = append(bad, fmt.Sprintf(
			"node.speedupVsRef regressed: %.3g < %.3g (baseline %.3g - %d%%)",
			c.SpeedupVsRef, floor, b.SpeedupVsRef, tol))
	}
	return bad
}

// Filename returns the canonical file name for snapshot id: BENCH_006.json
// for id 6. Three digits keep lexical and numeric order aligned for the
// first 999 snapshots.
func Filename(id int) string { return fmt.Sprintf("BENCH_%03d.json", id) }

var filePat = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// ParseID extracts the snapshot id from a BENCH_<n>.json file name; the
// second result is false when the name is not a snapshot file.
func ParseID(name string) (int, bool) {
	m := filePat.FindStringSubmatch(filepath.Base(name))
	if m == nil {
		return 0, false
	}
	id, err := strconv.Atoi(m[1])
	if err != nil || id < 1 {
		return 0, false
	}
	return id, true
}

// ErrNoSnapshots is returned by Latest when dir holds no BENCH_<n>.json.
var ErrNoSnapshots = errors.New("bench: no BENCH_<n>.json snapshots found")

// Latest loads the highest-numbered snapshot in dir. It returns the
// snapshot, its path, and an error (ErrNoSnapshots when none exist). The
// loaded snapshot is validated: a corrupt committed snapshot should fail
// loudly here, not silently pass a gate.
func Latest(dir string) (*Snapshot, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	best, bestID := "", 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := ParseID(e.Name()); ok && id > bestID {
			best, bestID = e.Name(), id
		}
	}
	if bestID == 0 {
		return nil, "", ErrNoSnapshots
	}
	path := filepath.Join(dir, best)
	s, err := Load(path)
	if err != nil {
		return nil, path, err
	}
	return s, path, nil
}

// NextID returns the id the next snapshot in dir should use: one past the
// latest, or 1 for an empty trajectory.
func NextID(dir string) (int, error) {
	s, _, err := Latest(dir)
	if errors.Is(err, ErrNoSnapshots) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	return s.ID + 1, nil
}

// Load reads and validates one snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", path, err)
	}
	return &s, nil
}

// Save writes the snapshot to path as indented JSON (trailing newline, so
// the committed file is diff- and editor-friendly). The snapshot is
// validated first.
func (s *Snapshot) Save(path string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Markdown renders the snapshot as the README results table: one row per
// headline metric, with each in-process baseline alongside its row so the
// speedup is self-contained. The output is deterministic for a
// given snapshot, so regenerating the table is a pure function of the
// committed BENCH file.
func (s *Snapshot) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| Suite | Metric | Value | Baseline |\n")
	fmt.Fprintf(&b, "|---|---|---|---|\n")
	if e := s.Engine; e != nil {
		fmt.Fprintf(&b, "| engine | event dispatch | %.2f ns/op (%.1fM events/s) | heap scheduler %.2f ns/op — **%.2fx** |\n",
			e.NsPerEvent, e.EventsPerSec/1e6, e.HeapNsPerEvent, e.SpeedupVsHeap)
		fmt.Fprintf(&b, "| engine | allocations | %.0f allocs/op, %.0f B/op | heap scheduler %.0f allocs/op |\n",
			e.AllocsPerOp, e.BytesPerOp, e.HeapAllocsPerOp)
	}
	if n := s.Node; n != nil {
		fmt.Fprintf(&b, "| node | burst loop (%.0f sim-s/op) | %.2fM sim-s/s, %.0f allocs/op | per-burst reference — **%.2fx** |\n",
			n.SimSecondsPerOp, n.SimSecPerWallSec/1e6, n.AllocsPerOp, n.SpeedupVsRef)
	}
	if c := s.Cluster; c != nil {
		fmt.Fprintf(&b, "| cluster | %s batch, %d nodes x %d jobs | mean %.0f s, P95 %.0f s (simulated) | wall %.2f s |\n",
			c.Policy, c.Nodes, c.Jobs, c.MeanCompletionS, c.P95CompletionS, c.WallSeconds)
	}
	if v := s.Serve; v != nil {
		fmt.Fprintf(&b, "| serve | cold (simulate+fill) | %.0f req/s, P95 %.2f ms | %d requests, %d workers |\n",
			v.Cold.ReqPerSec, v.Cold.P95LatencyS*1e3, v.Requests, v.Concurrency)
		fmt.Fprintf(&b, "| serve | warm (cache hits) | %.0f req/s, P95 %.2f ms | digest == cold ✓ |\n",
			v.Warm.ReqPerSec, v.Warm.P95LatencyS*1e3)
	}
	fmt.Fprintf(&b, "\nSnapshot `%s` (", Filename(s.ID))
	if s.Cluster != nil || s.Serve != nil {
		// Mode and seed sized the retired suites; the node suite has neither.
		mode := "full"
		if s.Quick {
			mode = "quick"
		}
		fmt.Fprintf(&b, "%s mode, seed %d, ", mode, s.Seed)
	}
	fmt.Fprintf(&b, "%s/%s, %s).\n", s.GOOS, s.GOARCH, s.GoVersion)
	return b.String()
}

// IDs returns the sorted snapshot ids present in dir — the x-axis of the
// trajectory.
func IDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := ParseID(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}
