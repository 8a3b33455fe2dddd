package fabric

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lingerlonger/internal/scenario"
)

// The committed specs under scenarios/ are the paper's figure sweeps.
// These golden tests pin their reports: expanding a spec and running its
// points through the fabric must reproduce the committed report under
// testdata/ byte for byte. The reports were recorded from the original
// named-sweep tasks the specs replaced, so they also pin that the spec
// form computes exactly what those tasks did. A change that moves one of
// these bytes changes a paper figure; regenerating them hides that.

func goldenScenario(t *testing.T, file string, quick bool, golden string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", file))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	id, specs, err := scenario.Expand(spec, quick)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := RunLocal(BuiltinTasks(), nil, 2, id, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeReport(id, spec.Seed, quick, results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario %s (quick=%t) differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s",
			file, quick, golden, got, want)
	}
}

// TestGoldenNodeScenario pins Figure 5's one-node grid: the quick smoke
// grid and the full 3 context switches x 19 utilizations.
func TestGoldenNodeScenario(t *testing.T) {
	goldenScenario(t, "node.json", true, "node-quick.json")
	goldenScenario(t, "node.json", false, "node.json")
}

// TestGoldenFig8Scenario pins the Figures 7-8 policy comparison at quick
// scale.
func TestGoldenFig8Scenario(t *testing.T) {
	goldenScenario(t, "fig8.json", true, "fig8-quick.json")
}

// TestScenarioTaskRegistered pins the fabric contract: agents resolve the
// "scenario" task from the builtin table, so scenario sweeps can run on a
// distributed fabric without any new wire messages.
func TestScenarioTaskRegistered(t *testing.T) {
	if _, ok := BuiltinTasks().Lookup(scenario.TaskName); !ok {
		t.Fatalf("task %q not in BuiltinTasks", scenario.TaskName)
	}
}
