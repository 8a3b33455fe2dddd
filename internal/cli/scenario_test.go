package cli

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/scenario"
)

func TestLoadScenarioSeedPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "n.json")
	spec := `{"scenarioVersion":1,"name":"n","kind":"node","seed":5}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int64
	}{
		{nil, 5},                    // the spec's seed stands
		{[]string{"-seed", "9"}, 9}, // an explicit -seed wins
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		seed := fs.Int64("seed", 1, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		rec := obs.New(obs.NewRegistry(), nil)
		sc, err := LoadScenario(fs, path, *seed, true, rec)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Spec.Seed != tc.want || sc.ID != "n" || len(sc.Points) != 12 {
			t.Errorf("args %v: seed %d, id %q, %d points; want seed %d, id n, 12 points",
				tc.args, sc.Spec.Seed, sc.ID, len(sc.Points), tc.want)
		}
		if sc.Points[0].Task != scenario.TaskName || sc.Points[0].Seed != exp.DeriveSeed(tc.want, 0) {
			t.Errorf("args %v: first point %+v not seeded from %d", tc.args, sc.Points[0], tc.want)
		}
		if n := rec.Counter(obs.ScenarioPointsExpanded).Value(); n != 12 {
			t.Errorf("args %v: %s = %d, want 12", tc.args, obs.ScenarioPointsExpanded, n)
		}
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"scenarioVersion":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	if _, err := LoadScenario(fs, bad, 1, false, nil); !IsUsage(err) {
		t.Errorf("invalid spec: err = %v, want a usage error", err)
	}
	if _, err := LoadScenario(fs, filepath.Join(dir, "missing.json"), 1, false, nil); err == nil || IsUsage(err) {
		t.Errorf("missing file: err = %v, want a runtime error", err)
	}
}
