package fabric

import (
	"encoding/json"
	"slices"
	"testing"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/scenario"
)

// TestBuiltinTasksRegistry pins the fabric contract: agents resolve every
// point from the builtin table, and the scenario task is the only
// simulation task in it.
func TestBuiltinTasksRegistry(t *testing.T) {
	if got, want := BuiltinTasks().Names(), []string{scenario.TaskName}; !slices.Equal(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
}

// scenarioPoint is a scenario point spec with the given raw params.
func scenarioPoint(seed int64, params string) exp.PointSpec {
	return exp.PointSpec{Task: scenario.TaskName, Sweep: "unit", Index: 0, Seed: seed, Params: []byte(params)}
}

// runTwice runs spec through the builtin registry twice and fails unless
// both runs produce the same bytes.
func runTwice(t *testing.T, spec exp.PointSpec) []byte {
	t.Helper()
	reg := BuiltinTasks()
	b1, err := reg.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := reg.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("%s point not deterministic:\n%s\n%s", spec.Params, b1, b2)
	}
	return b1
}

// A node point run through the registry is a pure function of its spec
// and echoes its cell.
func TestNodeTaskDeterministic(t *testing.T) {
	out := runTwice(t, scenarioPoint(11, `{"kind":"node","node":{"cs":0.0003,"util":0.3,"dur":50}}`))
	var pt scenario.NodePoint
	if err := json.Unmarshal(out, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.ContextSwitch != 300e-6 || pt.Utilization != 0.3 {
		t.Errorf("point echoes wrong params: %+v", pt)
	}
	if pt.LDR <= 0 {
		t.Errorf("LDR = %g, want positive", pt.LDR)
	}
}

func TestNodeTaskRejectsBadParams(t *testing.T) {
	reg := BuiltinTasks()
	for name, params := range map[string]string{
		"malformed":    `{"kind":"node","node":`,
		"non-positive": `{"kind":"node","node":{"cs":1e-4,"util":0.3,"dur":0}}`,
	} {
		if _, err := reg.Run(scenarioPoint(1, params)); err == nil {
			t.Errorf("%s params accepted", name)
		}
	}
}

func TestClusterTaskRejectsBadParams(t *testing.T) {
	reg := BuiltinTasks()
	for name, params := range map[string]string{
		"malformed":      `{"kind":"cluster","policy":`,
		"unknown policy": `{"kind":"cluster","policy":"XX","workload":"w1","quick":true}`,
		"bad workload":   `{"kind":"cluster","policy":"LL","workload":"w3","quick":true}`,
	} {
		if _, err := reg.Run(scenarioPoint(1, params)); err == nil {
			t.Errorf("%s params accepted", name)
		}
	}
}

// One real quick cluster point end to end: deterministic and carrying the
// Figure 7/8 fields.
func TestClusterTaskQuickPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation point is slow")
	}
	spec, err := scenario.Decode([]byte(`{"scenarioVersion":1,"name":"unit","kind":"cluster","policy":"LL","workload":"w2","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	_, points, err := scenario.Expand(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	var pt scenario.ClusterPoint
	if err := json.Unmarshal(runTwice(t, points[0]), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Policy != "LL" || pt.Workload != 2.0 || pt.AvgCompletion <= 0 {
		t.Errorf("cluster point = %+v", pt)
	}
}
