package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// valid returns a current-shape snapshot (the node suite alone) that
// passes Validate; tests mutate one field at a time to probe the
// strictness.
func valid() *Snapshot {
	return &Snapshot{
		SchemaVersion: SchemaVersion,
		ID:            6,
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		Node:          validNode(),
	}
}

// legacy returns the BENCH_006/007 shape: the current snapshot plus the
// retired engine, cluster and serve suites and the seed that sized them.
func legacy() *Snapshot {
	s := valid()
	s.Seed = 1
	s.Engine = legacyEngine()
	s.Cluster = &ClusterSuite{
		Nodes: 64, Jobs: 128, Policy: "LL",
		MeanCompletionS: 2500, P95CompletionS: 4100,
		WallSeconds: 1.8, JobsPerSec: 71,
	}
	s.Serve = &ServeSuite{
		Requests: 400, Concurrency: 4, Mix: "decide=1,node=1,cluster=1",
		Cold:         ServePhase{ReqPerSec: 900, MeanLatencyS: 0.004, P95LatencyS: 0.02, Digest: "sha256:ab"},
		Warm:         ServePhase{ReqPerSec: 8000, MeanLatencyS: 0.0004, P95LatencyS: 0.001, Digest: "sha256:ab"},
		DigestsMatch: true,
	}
	return s
}

// validNode returns a plausible node-suite block (optional since
// BENCH_007).
func validNode() *NodeSuite {
	return &NodeSuite{
		SimSecondsPerOp: 50, NsPerSimSecond: 40000, SimSecPerWallSec: 25000,
		AllocsPerOp: 2, RefNsPerSimSec: 130000, SpeedupVsRef: 3.2,
	}
}

// legacyEngine returns a plausible engine-suite block, as recorded by
// BENCH_001 through BENCH_007.
func legacyEngine() *EngineSuite {
	return &EngineSuite{
		NsPerEvent: 15.5, EventsPerSec: 64.5e6, BytesPerOp: 0, AllocsPerOp: 0,
		HeapNsPerEvent: 54.3, HeapAllocsPerOp: 1, SpeedupVsHeap: 3.5,
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	// The current shape: the node suite alone...
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	// ...BENCH_006's: engine, cluster and serve, no node suite...
	s := legacy()
	s.Node = nil
	if err := s.Validate(); err != nil {
		t.Fatalf("valid BENCH_006-shape snapshot rejected: %v", err)
	}
	// ...and BENCH_007's: all four.
	if err := legacy().Validate(); err != nil {
		t.Fatalf("valid BENCH_007-shape snapshot rejected: %v", err)
	}
}

func TestValidateRejectsBadNodeSuite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*NodeSuite)
	}{
		{"zero span", func(n *NodeSuite) { n.SimSecondsPerOp = 0 }},
		{"zero throughput", func(n *NodeSuite) { n.SimSecPerWallSec = 0 }},
		{"negative allocs", func(n *NodeSuite) { n.AllocsPerOp = -1 }},
		{"zero reference", func(n *NodeSuite) { n.RefNsPerSimSec = 0 }},
		{"zero speedup", func(n *NodeSuite) { n.SpeedupVsRef = 0 }},
	}
	for _, c := range cases {
		s := valid()
		c.mut(s.Node)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad node suite", c.name)
		}
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"wrong schema", func(s *Snapshot) { s.SchemaVersion = 99 }},
		{"zero id", func(s *Snapshot) { s.ID = 0 }},
		{"missing go version", func(s *Snapshot) { s.GoVersion = "" }},
		{"zero events/s", func(s *Snapshot) { s.Engine.EventsPerSec = 0 }},
		{"negative allocs", func(s *Snapshot) { s.Engine.AllocsPerOp = -1 }},
		{"zero heap baseline", func(s *Snapshot) { s.Engine.HeapNsPerEvent = 0 }},
		{"zero heap speedup", func(s *Snapshot) { s.Engine.SpeedupVsHeap = 0 }},
		{"zero nodes", func(s *Snapshot) { s.Cluster.Nodes = 0 }},
		{"no policy", func(s *Snapshot) { s.Cluster.Policy = "" }},
		{"zero cluster wall", func(s *Snapshot) { s.Cluster.WallSeconds = 0 }},
		{"zero serve req/s", func(s *Snapshot) { s.Serve.Cold.ReqPerSec = 0 }},
		{"serve errors", func(s *Snapshot) { s.Serve.Warm.Errors = 3 }},
		{"bad digest prefix", func(s *Snapshot) { s.Serve.Cold.Digest = "md5:zz" }},
		{"digests differ", func(s *Snapshot) { s.Serve.Warm.Digest = "sha256:other" }},
		{"digests not checked", func(s *Snapshot) { s.Serve.DigestsMatch = false }},
		{"no suite", func(s *Snapshot) { s.Engine, s.Node, s.Cluster, s.Serve = nil, nil, nil, nil }},
	}
	for _, c := range cases {
		// The retired suites are optional but, when present, still
		// validated.
		s := legacy()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad snapshot", c.name)
		}
	}
}

func TestCompareGate(t *testing.T) {
	base := valid()

	if bad := Compare(base, valid()); len(bad) != 0 {
		t.Fatalf("identical snapshots flagged: %v", bad)
	}

	// The retired suites on either side are not gated.
	cur := legacy()
	cur.Engine.EventsPerSec = 1
	cur.Cluster.WallSeconds = 1e3
	cur.Serve.Warm.ReqPerSec = 1
	if bad := Compare(base, cur); len(bad) != 0 {
		t.Fatalf("retired suites gated: %v", bad)
	}

	// 10% slower: within tolerance.
	cur = valid()
	cur.Node.NsPerSimSecond = base.Node.NsPerSimSecond * 1.10
	if bad := Compare(base, cur); len(bad) != 0 {
		t.Fatalf("10%% slowdown flagged: %v", bad)
	}

	// 20% slower: gated.
	cur = valid()
	cur.Node.NsPerSimSecond = base.Node.NsPerSimSecond * 1.20
	if bad := Compare(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "nsPerSimSecond") {
		t.Fatalf("20%% slowdown not flagged correctly: %v", bad)
	}

	// allocs/op may grow by 15% plus half an alloc: from 2, 2.7 passes and
	// 3 fails.
	cur = valid()
	cur.Node.AllocsPerOp = 2.7
	if bad := Compare(base, cur); len(bad) != 0 {
		t.Fatalf("allocs/op within tolerance flagged: %v", bad)
	}
	cur = valid()
	cur.Node.AllocsPerOp = 3
	if bad := Compare(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "allocsPerOp") {
		t.Fatalf("2 -> 3 allocs/op not flagged correctly: %v", bad)
	}

	// Zero-alloc baseline: measurement jitter below half an alloc is not a
	// regression.
	base0, cur := valid(), valid()
	base0.Node.AllocsPerOp = 0
	cur.Node.AllocsPerOp = 0.3
	if bad := Compare(base0, cur); len(bad) != 0 {
		t.Fatalf("sub-half-alloc jitter flagged: %v", bad)
	}

	// The same-process ratio: a 10% drop in speedup over the reference
	// passes, a 20% drop fails, even when the absolute time holds.
	cur = valid()
	cur.Node.SpeedupVsRef = base.Node.SpeedupVsRef * 0.90
	if bad := Compare(base, cur); len(bad) != 0 {
		t.Fatalf("10%% speedup drop flagged: %v", bad)
	}
	cur = valid()
	cur.Node.SpeedupVsRef = base.Node.SpeedupVsRef * 0.80
	if bad := Compare(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "speedupVsRef") {
		t.Fatalf("20%% speedup drop not flagged correctly: %v", bad)
	}

	// A slower machine fails the absolute floor but not the ratio.
	cur = valid()
	cur.Node.NsPerSimSecond *= 1.6
	cur.Node.RefNsPerSimSec *= 1.6
	if bad := Compare(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "nsPerSimSecond") {
		t.Fatalf("uniformly slower machine not flagged on the floor alone: %v", bad)
	}

	// No node suite on either side is a violation, never a vacuous pass.
	noNode := legacy()
	noNode.Node = nil
	for _, c := range []struct {
		name      string
		base, cur *Snapshot
		want      int
	}{
		{"baseline", noNode, valid(), 1},
		{"current", valid(), noNode, 1},
		{"both", noNode, noNode, 2},
	} {
		if bad := Compare(c.base, c.cur); len(bad) != c.want || !strings.Contains(bad[0], "no node suite") {
			t.Errorf("%s without node suite: got %v, want %d violation(s)", c.name, bad, c.want)
		}
	}
}

func TestFilenameRoundtrip(t *testing.T) {
	if got := Filename(6); got != "BENCH_006.json" {
		t.Fatalf("Filename(6) = %q", got)
	}
	id, ok := ParseID("BENCH_006.json")
	if !ok || id != 6 {
		t.Fatalf("ParseID(BENCH_006.json) = %d, %t", id, ok)
	}
	if id, ok := ParseID("/some/dir/BENCH_012.json"); !ok || id != 12 {
		t.Fatalf("ParseID with dir = %d, %t", id, ok)
	}
	for _, bad := range []string{"BENCH_.json", "BENCH_6.txt", "bench_006.json", "EXPERIMENTS.md", "BENCH_0.json"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID accepted %q", bad)
		}
	}
}

func TestSaveLoadLatestNextID(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := Latest(dir); !errors.Is(err, ErrNoSnapshots) {
		t.Fatalf("Latest on empty dir: %v, want ErrNoSnapshots", err)
	}
	if id, err := NextID(dir); err != nil || id != 1 {
		t.Fatalf("NextID on empty dir = %d, %v", id, err)
	}

	for _, id := range []int{2, 6, 4} {
		s := valid()
		s.ID = id
		if err := s.Save(filepath.Join(dir, Filename(id))); err != nil {
			t.Fatalf("Save(%d): %v", id, err)
		}
	}
	s, path, err := Latest(dir)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if s.ID != 6 || filepath.Base(path) != "BENCH_006.json" {
		t.Fatalf("Latest picked id %d (%s), want 6", s.ID, path)
	}
	if id, err := NextID(dir); err != nil || id != 7 {
		t.Fatalf("NextID = %d, %v, want 7", id, err)
	}
	if ids, err := IDs(dir); err != nil || len(ids) != 3 || ids[0] != 2 || ids[2] != 6 {
		t.Fatalf("IDs = %v, %v", ids, err)
	}
}

func TestLoadRejectsUnknownFieldsAndInvalid(t *testing.T) {
	dir := t.TempDir()

	// Unknown field: a typo'd hand edit must not load silently.
	p := filepath.Join(dir, "BENCH_001.json")
	if err := os.WriteFile(p, []byte(`{"schemaVersion":1,"idd":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil {
		t.Fatal("Load accepted a snapshot with an unknown field")
	}

	// Structurally valid JSON that fails Validate.
	bad := valid()
	bad.Node.SpeedupVsRef = 0
	if err := bad.Save(p); err == nil {
		t.Fatal("Save accepted an invalid snapshot")
	}
}

func TestMarkdownMentionsHeadlines(t *testing.T) {
	md := valid().Markdown()
	for _, want := range []string{"3.20x", "BENCH_006.json", "(linux/amd64, go1.24.0)"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	for _, absent := range []string{"| engine |", "| cluster |", "| serve |", "mode"} {
		if strings.Contains(md, absent) {
			t.Errorf("Markdown renders %q for a node-only snapshot:\n%s", absent, md)
		}
	}
	md = legacy().Markdown()
	for _, want := range []string{"3.50x", "64 nodes x 128 jobs", "req/s", "full mode, seed 1"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown omits a recorded retired suite (%q):\n%s", want, md)
		}
	}
}

// The committed trajectory must keep loading under the current schema,
// and the README results table must stay exactly what -table renders
// from the latest snapshot.
func TestCommittedSnapshotsLoadAndRenderREADME(t *testing.T) {
	for _, name := range []string{"BENCH_006.json", "BENCH_007.json"} {
		if _, err := Load(filepath.Join("..", "..", name)); err != nil {
			t.Fatalf("committed %s no longer loads: %v", name, err)
		}
	}
	s, err := Load(filepath.Join("..", "..", "BENCH_007.json"))
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	const last = "Snapshot `BENCH_007.json`"
	start := strings.Index(text, "| Suite | Metric |")
	end := strings.Index(text, last)
	if start < 0 || end < start {
		t.Fatal("README.md has no BENCH_007 results table")
	}
	end += strings.IndexByte(text[end:], '\n') + 1
	if got, want := s.Markdown(), text[start:end]; got != want {
		t.Errorf("README results block differs from BENCH_007 -table output:\n got:\n%s\nwant:\n%s", got, want)
	}
}
