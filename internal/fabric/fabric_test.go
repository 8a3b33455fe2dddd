package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/runtime"
)

// testOwner is a permanently idle scripted owner: fabric tests exercise the
// work path, not the cycle-stealing protocol.
func testOwner(t *testing.T) *runtime.ScriptedOwner {
	t.Helper()
	o, err := runtime.NewScriptedOwner([]runtime.OwnerPhase{{Duration: 1e9, Util: 0.02, FreeMB: 40}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testTasks returns a registry with one pure task "t" whose output is a
// canonical JSON function of the spec. delay slows each execution down so
// timing-sensitive tests (resurrection mid-run) have a run to be mid of;
// it never reaches the output bytes.
func testTasks(delay time.Duration) *exp.Tasks {
	reg := exp.NewTasks()
	fn := func(spec exp.PointSpec) ([]byte, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return json.Marshal(map[string]any{"i": spec.Index, "s": spec.Seed, "p": string(spec.Params)})
	}
	if err := reg.Register("t", fn); err != nil {
		panic(err)
	}
	return reg
}

// testSpecs builds n specs for the "t" task with DeriveSeed-style seeds.
func testSpecs(n int) []exp.PointSpec {
	specs := make([]exp.PointSpec, n)
	for i := range specs {
		specs[i] = exp.PointSpec{
			Task:   "t",
			Sweep:  "unit",
			Index:  i,
			Seed:   exp.DeriveSeed(3, i),
			Params: []byte(fmt.Sprintf(`{"x":%d}`, i)),
		}
	}
	return specs
}

// startAgents serves one agent per name on loopback, each executing reg,
// and returns their addresses in name order.
func startAgents(t *testing.T, names []string, reg *exp.Tasks) []string {
	t.Helper()
	addrs := make([]string, len(names))
	for i, name := range names {
		addrs[i] = serveAgent(t, name, reg.Run, listen(t))
	}
	return addrs
}

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serveAgent serves one agent named name on l, executing exec, and
// returns its address.
func serveAgent(t *testing.T, name string, exec exp.TaskFunc, l net.Listener) string {
	t.Helper()
	a := runtime.NewAgent(name, testOwner(t), 64)
	a.SetWorkExecutor(exec)
	srv := runtime.NewAgentServer(a, l)
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// acceptSignal is a listener that closes reached once it has accepted n
// connections.
type acceptSignal struct {
	net.Listener
	n       int
	reached chan struct{}

	mu       sync.Mutex
	accepted int
}

func (l *acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		if l.accepted++; l.accepted == l.n {
			close(l.reached)
		}
		l.mu.Unlock()
	}
	return c, err
}

// fastLink is a test-scale link config: no backoff sleeps, fast probes,
// quick suspect/dead thresholds.
func fastLink() LinkConfig {
	link := DefaultLinkConfig()
	link.RetryAttempts = 1
	link.RetryBase = 0
	link.RetryMax = 0
	link.HealthInterval = 3 * time.Millisecond
	link.SuspectAfter = 1
	link.DeadAfter = 2
	link.MaxInFlight = 2
	link.CallTimeout = 5 * time.Second
	return link
}

// memStore is an in-memory exp.Store for resume tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) key(sweep string, i int) string { return fmt.Sprintf("%s/%d", sweep, i) }

func (s *memStore) Lookup(sweep string, i int) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[s.key(sweep, i)]
	return data, ok, nil
}

func (s *memStore) Save(sweep string, i int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[s.key(sweep, i)] = append([]byte(nil), data...)
	return nil
}

// serialBaseline computes the single-process reference results.
func serialBaseline(t *testing.T, specs []exp.PointSpec) [][]byte {
	t.Helper()
	want, _, err := RunLocal(testTasks(0), nil, 1, "unit", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertSameBytes fails unless got matches the serial baseline byte for byte.
func assertSameBytes(t *testing.T, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if string(want[i]) != string(got[i]) {
			t.Errorf("point %d: fabric %s, serial %s", i, got[i], want[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	specs := testSpecs(2)
	bad := LinkConfig{}
	if _, _, err := Run(Config{Agents: []string{"x"}, Link: bad}, "unit", specs); err == nil {
		t.Error("invalid link config accepted")
	}
	if _, _, err := Run(Config{Link: DefaultLinkConfig()}, "unit", specs); err == nil {
		t.Error("empty agent list accepted")
	}
	swapped := testSpecs(2)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, _, err := Run(Config{Agents: []string{"x"}, Link: DefaultLinkConfig()}, "unit", swapped); err == nil {
		t.Error("out-of-order spec indices accepted")
	}
}

// A 3-agent fabric run must be byte-identical to the serial reference.
func TestFabricMatchesLocal(t *testing.T) {
	specs := testSpecs(24)
	want := serialBaseline(t, specs)
	addrs := startAgents(t, []string{"a", "b", "c"}, testTasks(0))
	got, stats, err := Run(Config{Agents: addrs, Link: fastLink()}, "unit", specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got)
	if stats.Completed != len(specs) || stats.Restored != 0 {
		t.Errorf("stats = %+v, want %d completed", stats, len(specs))
	}
}

// Under a seeded lossy network the bytes must not change; only the
// transport tallies may.
func TestFabricDeterministicUnderDrops(t *testing.T) {
	specs := testSpecs(24)
	want := serialBaseline(t, specs)
	addrs := startAgents(t, []string{"a", "b", "c"}, testTasks(0))
	inj, err := runtime.NewSeededInjector(runtime.FaultConfig{Drop: 0.2, DropReply: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	link := fastLink()
	link.RetryAttempts = 4 // ride out consecutive drops without killing agents
	link.DeadAfter = 6
	got, stats, err := Run(Config{Agents: addrs, Link: link, Injector: inj}, "unit", specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got)
	if stats.Completed+stats.Restored != len(specs) {
		t.Errorf("completed %d + restored %d != %d points", stats.Completed, stats.Restored, len(specs))
	}
}

// An agent severed for the whole run must go dead, its points must be
// re-executed elsewhere, and the bytes must not change.
//
// The healthy agents a and c hold every point until b has accepted two
// connections. The coordinator connects to b only from a slot holding a
// point or from the prober of a suspect b, and the injector refuses the
// call that follows each connection whatever a and c do meanwhile. So b
// is charged two consecutive failures (dead) and at least one point is
// requeued, however the goroutines are scheduled: without the hold, a
// and c could finish all 24 points before b was dialled at all.
func TestFabricSurvivesDeadAgent(t *testing.T) {
	specs := testSpecs(24)
	want := serialBaseline(t, specs)
	tasks := testTasks(0)
	bDialled := make(chan struct{})
	held := func(spec exp.PointSpec) ([]byte, error) {
		<-bDialled
		return tasks.Run(spec)
	}
	addrs := []string{
		serveAgent(t, "a", held, listen(t)),
		serveAgent(t, "b", tasks.Run, &acceptSignal{Listener: listen(t), n: 2, reached: bDialled}),
		serveAgent(t, "c", held, listen(t)),
	}
	inj, err := runtime.NewSeededInjector(runtime.FaultConfig{
		Seed:       42,
		Partitions: map[string]runtime.Partition{"b": {FromCall: 0, Calls: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Run(Config{Agents: addrs, Link: fastLink(), Injector: inj}, "unit", specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got)
	if stats.Dead < 1 {
		t.Errorf("stats = %+v, want at least one dead transition", stats)
	}
	if stats.Requeued < 1 {
		t.Errorf("stats = %+v, want the severed agent's points requeued", stats)
	}
}

// An agent severed for a finite window must come back through the prober
// and finish the run alongside the healthy agent.
func TestFabricResurrectsAgent(t *testing.T) {
	specs := testSpecs(60)
	want := serialBaseline(t, specs)
	// ~4ms per point keeps the run alive (~240ms single-agent serial)
	// while the partition lifts after 12 calls (~2 work + ~10 probes at
	// 3ms intervals), so "b" resurrects mid-run with wide margin.
	addrs := startAgents(t, []string{"a", "b"}, testTasks(4*time.Millisecond))
	inj, err := runtime.NewSeededInjector(runtime.FaultConfig{
		Seed:       42,
		Partitions: map[string]runtime.Partition{"b": {FromCall: 0, Calls: 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := fastLink()
	link.MaxInFlight = 1
	got, stats, err := Run(Config{Agents: addrs, Link: link, Injector: inj}, "unit", specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got)
	if stats.Dead < 1 || stats.Resurrected < 1 {
		t.Errorf("stats = %+v, want a dead then resurrected agent", stats)
	}
}

// With every agent severed the run must abort with ErrAllAgentsDead
// instead of hanging.
func TestFabricAllAgentsDead(t *testing.T) {
	specs := testSpecs(8)
	addrs := startAgents(t, []string{"a", "b"}, testTasks(0))
	inj, err := runtime.NewSeededInjector(runtime.FaultConfig{
		Seed: 42,
		Partitions: map[string]runtime.Partition{
			"a": {FromCall: 0, Calls: 1 << 30},
			"b": {FromCall: 0, Calls: 1 << 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(Config{Agents: addrs, Link: fastLink(), Injector: inj}, "unit", specs)
	if !errors.Is(err, ErrAllAgentsDead) {
		t.Errorf("err = %v, want ErrAllAgentsDead", err)
	}
}

// A task failure is not a transport failure: the run must fail fast with
// the task's error rather than requeue forever.
func TestFabricTaskErrorFailsFast(t *testing.T) {
	reg := exp.NewTasks()
	if err := reg.Register("t", func(spec exp.PointSpec) ([]byte, error) {
		if spec.Index == 3 {
			return nil, errors.New("boom")
		}
		return []byte(`{}`), nil
	}); err != nil {
		t.Fatal(err)
	}
	specs := testSpecs(8)
	addrs := startAgents(t, []string{"a"}, reg)
	_, _, err := Run(Config{Agents: addrs, Link: fastLink()}, "unit", specs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the task's own error", err)
	}
}

// A fabric run resumed from a store populated by a serial run must restore
// every point without dispatching anything — and vice versa: the two
// execution modes share the snapshot format.
func TestFabricResumesFromSerialStore(t *testing.T) {
	specs := testSpecs(16)
	store := newMemStore()
	want, _, err := RunLocal(testTasks(0), store, 1, "unit", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startAgents(t, []string{"a", "b"}, testTasks(0))
	got, stats, err := Run(Config{Agents: addrs, Link: fastLink(), Store: store}, "unit", specs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got)
	if stats.Restored != len(specs) || stats.Dispatched != 0 {
		t.Errorf("stats = %+v, want all %d points restored, none dispatched", stats, len(specs))
	}

	// And the reverse: a local run resumes from a fabric-written store.
	store2 := newMemStore()
	if _, _, err := Run(Config{Agents: addrs, Link: fastLink(), Store: store2}, "unit", specs); err != nil {
		t.Fatal(err)
	}
	got2, stats2, err := RunLocal(testTasks(0), store2, 1, "unit", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, want, got2)
	if stats2.Restored != len(specs) || stats2.Completed != 0 {
		t.Errorf("local resume stats = %+v, want all restored", stats2)
	}
}

// EncodeReport output must depend only on (sweep, seed, quick, results):
// identical inputs give identical bytes, and invalid point JSON is refused.
func TestEncodeReport(t *testing.T) {
	results := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}
	r1, err := EncodeReport("unit", 3, true, results)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EncodeReport("unit", 3, true, results)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Error("EncodeReport not deterministic")
	}
	var rep Report
	if err := json.Unmarshal(r1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != ReportSchemaVersion || rep.Sweep != "unit" || len(rep.Points) != 2 {
		t.Errorf("decoded report = %+v", rep)
	}
	if _, err := EncodeReport("unit", 3, true, [][]byte{[]byte("not json")}); err == nil {
		t.Error("invalid point JSON accepted")
	}
}

func TestRunLocalValidation(t *testing.T) {
	if _, _, err := RunLocal(nil, nil, 1, "unit", testSpecs(1), nil); err == nil {
		t.Error("nil registry accepted")
	}
	swapped := testSpecs(2)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, _, err := RunLocal(testTasks(0), nil, 1, "unit", swapped, nil); err == nil {
		t.Error("out-of-order spec indices accepted")
	}
}

// Mirror must land every tally on its catalogued fabric.* counter.
func TestStatsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	s := Stats{Dispatched: 7, Completed: 6, Restored: 5, Requeued: 4, Suspected: 3, Dead: 2, Resurrected: 1}
	s.Mirror(obs.New(reg, nil))
	got := reg.CounterValues()
	want := map[string]int64{
		obs.FabricPointsDispatched:  7,
		obs.FabricPointsCompleted:   6,
		obs.FabricPointsRestored:    5,
		obs.FabricPointsRequeued:    4,
		obs.FabricAgentsSuspected:   3,
		obs.FabricAgentsDead:        2,
		obs.FabricAgentsResurrected: 1,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	Stats{}.Mirror(nil) // nil-safe
}

// A task error in local mode surfaces, as in fabric mode.
func TestRunLocalTaskError(t *testing.T) {
	reg := exp.NewTasks()
	if err := reg.Register("t", func(spec exp.PointSpec) ([]byte, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunLocal(reg, nil, 1, "unit", testSpecs(2), nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the task's own error", err)
	}
}
