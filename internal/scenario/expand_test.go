package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"lingerlonger/internal/exp"
)

func mustDecode(t *testing.T, in string) *Spec {
	t.Helper()
	s, err := Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExpandClusterAxes(t *testing.T) {
	s := mustDecode(t, `{"scenarioVersion": 1, "name": "ax", "kind": "cluster", "seed": 7,
		"sweep": {"workloads": ["w1", "w2"], "policies": ["LL", "FS"], "seeds": 2}}`)
	id, specs, err := Expand(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if id != "ax" {
		t.Errorf("sweep id = %q, want ax", id)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded %d points, want 8 (2 workloads x 2 policies x 2 seeds)", len(specs))
	}
	// Workloads are the outer axis, policies next, replications innermost.
	wantOrder := []struct{ wl, pol string }{
		{"w1", "LL"}, {"w1", "LL"}, {"w1", "FS"}, {"w1", "FS"},
		{"w2", "LL"}, {"w2", "LL"}, {"w2", "FS"}, {"w2", "FS"},
	}
	for i, ps := range specs {
		if ps.Task != TaskName || ps.Sweep != "ax" || ps.Index != i {
			t.Errorf("spec %d: task=%q sweep=%q index=%d", i, ps.Task, ps.Sweep, ps.Index)
		}
		if want := exp.DeriveSeed(7, i); ps.Seed != want {
			t.Errorf("spec %d: seed = %d, want DeriveSeed(7, %d) = %d", i, ps.Seed, i, want)
		}
		var p PointParams
		if err := json.Unmarshal(ps.Params, &p); err != nil {
			t.Fatal(err)
		}
		if p.Workload != wantOrder[i].wl || p.Policy != wantOrder[i].pol {
			t.Errorf("spec %d: (%s, %s), want (%s, %s)", i, p.Workload, p.Policy, wantOrder[i].wl, wantOrder[i].pol)
		}
		if !p.Quick || p.Kind != KindCluster || p.Cluster == nil || p.Trace == nil {
			t.Errorf("spec %d: params not fully resolved: %+v", i, p)
		}
	}
}

func TestExpandNodeQuickGrid(t *testing.T) {
	s := mustDecode(t, `{"scenarioVersion": 1, "name": "n", "kind": "node"}`)
	_, full, err := Expand(s, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 3*19 {
		t.Errorf("full grid has %d points, want 57", len(full))
	}
	_, quick, err := Expand(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(quick) != 3*4 {
		t.Fatalf("quick grid has %d points, want 12", len(quick))
	}
	var p PointParams
	if err := json.Unmarshal(quick[0].Params, &p); err != nil {
		t.Fatal(err)
	}
	if p.Node == nil || p.Node.Duration != 200 || p.Node.Utilization != 0 {
		t.Errorf("quick cell not pinned to smoke grid: %+v", p.Node)
	}
}

func TestExpandRejectsInvalid(t *testing.T) {
	s := &Spec{Version: SpecVersion, Name: "Bad Name", Kind: KindNode}
	if _, _, err := Expand(s, false); err == nil {
		t.Error("Expand accepted an invalid spec")
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	s := mustDecode(t, `{"scenarioVersion": 1, "name": "det", "kind": "cluster",
		"sweep": {"workloads": ["w1", "pareto"], "policies": ["LL", "FS"]}}`)
	_, specs, err := Expand(s, true)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(1, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(8, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(serial), len(specs))
	}
	for i := range serial {
		if !bytes.Equal(serial[i], pooled[i]) {
			t.Errorf("point %d differs between workers=1 and workers=8:\n%s\n%s",
				i, serial[i], pooled[i])
		}
	}
}

func TestNodeTaskMatchesLegacyShape(t *testing.T) {
	s := mustDecode(t, `{"scenarioVersion": 1, "name": "n", "kind": "node",
		"node": {"cs": [0.0001], "utils": [0.3], "dur": 200}}`)
	_, specs, err := Expand(s, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Task(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	var pt NodePoint
	if err := json.Unmarshal(out, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.ContextSwitch != 0.0001 || pt.Utilization != 0.3 {
		t.Errorf("point echoes wrong cell: %+v", pt)
	}
	if pt.FCSR <= 0 || pt.FCSR > 1 {
		t.Errorf("FCSR = %g out of (0, 1]", pt.FCSR)
	}
}

func TestTaskErrors(t *testing.T) {
	mk := func(params string) exp.PointSpec {
		return exp.PointSpec{Task: TaskName, Sweep: "x", Seed: 1, Params: []byte(params)}
	}
	cases := []struct {
		name string
		spec exp.PointSpec
	}{
		{"malformed params", mk(`{{`)},
		{"unknown kind", mk(`{"kind": "galaxy"}`)},
		{"unregistered policy", mk(`{"kind": "cluster", "policy": "ZZ", "workload": "w1"}`)},
		{"unregistered workload", mk(`{"kind": "cluster", "policy": "LL", "workload": "zz"}`)},
		{"cluster without params", mk(`{"kind": "cluster", "policy": "LL", "workload": "w1"}`)},
		{"cluster without memoryCheck", mk(`{"kind": "cluster", "policy": "LL", "workload": "w1", "cluster": {"nodes": 16}, "trace": {"machines": 6, "days": 1}}`)},
		{"node without cell", mk(`{"kind": "node"}`)},
		{"node bad duration", mk(`{"kind": "node", "node": {"cs": 0.0001, "util": 0.3, "dur": 0}}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Task(tc.spec); err == nil {
				t.Errorf("Task(%s) succeeded", tc.spec.Params)
			}
		})
	}
}

// TestTaskChecksPointRanges feeds Task raw point params, as a work RPC
// does, without Normalize. Params outside the spec's bounds must fail
// with ErrInvalidSpec, even where a quick run would override them, and
// params at and inside the bounds compute the bytes they always did: the
// digests were taken before the bounds were applied to point params.
func TestTaskChecksPointRanges(t *testing.T) {
	mk := func(params string) exp.PointSpec {
		return exp.PointSpec{Task: TaskName, Sweep: "x", Seed: 7, Params: []byte(params)}
	}
	cluster := func(c, tr string) exp.PointSpec {
		return mk(`{"kind":"cluster","quick":true,"policy":"LL","workload":"w1","cluster":{` + c +
			`,"memoryCheck":true},"trace":{` + tr + `}}`)
	}
	const okC = `"nodes":64,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`
	const okT = `"machines":16,"days":7`
	bad := []struct {
		name string
		spec exp.PointSpec
	}{
		{"nodes 0", cluster(`"nodes":0,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`, okT)},
		{"nodes 4097", cluster(`"nodes":4097,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`, okT)},
		{"nodes 2^40", cluster(`"nodes":1099511627776,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`, okT)},
		{"jobMB -1", cluster(`"nodes":64,"jobMB":-1,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`, okT)},
		{"pauseTime 1e5", cluster(`"nodes":64,"jobMB":8,"pauseTime":1e5,"contextSwitch":0.0001,"maxTime":200000`, okT)},
		{"contextSwitch 1", cluster(`"nodes":64,"jobMB":8,"pauseTime":30,"contextSwitch":1,"maxTime":200000`, okT)},
		{"maxTime 0", cluster(`"nodes":64,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":0`, okT)},
		{"maxTime 1e8", cluster(`"nodes":64,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":1e8`, okT)},
		{"machines 0", cluster(okC, `"machines":0,"days":7`)},
		{"machines 257", cluster(okC, `"machines":257,"days":7`)},
		{"machines 2^40", cluster(okC, `"machines":1099511627776,"days":7`)},
		{"days 0", cluster(okC, `"machines":16,"days":0`)},
		{"days 32", cluster(okC, `"machines":16,"days":32`)},
		{"days 2^40", cluster(okC, `"machines":16,"days":1099511627776`)},
		{"node cs 0", mk(`{"kind":"node","node":{"cs":0,"util":0.3,"dur":200}}`)},
		{"node cs 0.2", mk(`{"kind":"node","node":{"cs":0.2,"util":0.3,"dur":200}}`)},
		{"node util -0.1", mk(`{"kind":"node","node":{"cs":0.0001,"util":-0.1,"dur":200}}`)},
		{"node util 1", mk(`{"kind":"node","node":{"cs":0.0001,"util":1,"dur":200}}`)},
		{"node dur 0", mk(`{"kind":"node","node":{"cs":0.0001,"util":0.3,"dur":0}}`)},
		{"node dur 1e7", mk(`{"kind":"node","node":{"cs":0.0001,"util":0.3,"dur":1e7}}`)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Task(tc.spec); !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("Task(%s) = %v, want an ErrInvalidSpec error", tc.spec.Params, err)
			}
		})
	}

	good := []struct {
		spec   exp.PointSpec
		digest string
	}{
		{cluster(`"nodes":4096,"jobMB":8,"pauseTime":30,"contextSwitch":0.0001,"maxTime":200000`, `"machines":256,"days":31`),
			"6f606ce79e40eb67e323eb786767dc36ab8f1e45b750ab50e104151b603cf40f"},
		{mk(`{"kind":"node","node":{"cs":0.1,"util":0.99,"dur":200}}`),
			"ef1a64c3ab87dc373a25ded89f0d26589f4bd12c98e00a6e74e60275f39e86d3"},
		{mk(`{"kind":"node","node":{"cs":0.0001,"util":0,"dur":200}}`),
			"96d2ab90b2c162921ef700e8ef724a7d8ca81fcf73f87cef9d5c0a396b111393"},
		{mk(`{"kind":"node","node":{"cs":0.0003,"util":0.5,"dur":200}}`),
			"d7519506540030c207646bb5bf5728b2ae444fa1f1fe0902a2b7a4e72e54b96b"},
	}
	for _, tc := range good {
		out, err := Task(tc.spec)
		if err != nil {
			t.Fatalf("Task(%s): %v", tc.spec.Params, err)
		}
		if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != tc.digest {
			t.Errorf("Task(%s) = %s: digest %x, want %s", tc.spec.Params, out, sum, tc.digest)
		}
	}
}

func TestRunRejectsForeignTask(t *testing.T) {
	specs := []exp.PointSpec{{Task: "cluster", Sweep: "x", Seed: 1, Params: []byte(`{}`)}}
	if _, err := Run(1, specs, nil); err == nil {
		t.Error("Run accepted a non-scenario task")
	}
}
