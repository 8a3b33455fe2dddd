package scenario

import (
	"bytes"
	"encoding/json"
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

func TestRunRejectsForeignTask(t *testing.T) {
	specs := []exp.PointSpec{{Task: "cluster", Sweep: "x", Seed: 1, Params: []byte(`{}`)}}
	if _, err := Run(1, specs, nil); err == nil {
		t.Error("Run accepted a non-scenario task")
	}
}
