package cli

import (
	"flag"
	"os"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/scenario"
)

// Scenario is a scenario spec file loaded for one run.
type Scenario struct {
	// Spec is the decoded spec, carrying the run's effective seed.
	Spec *scenario.Spec
	// ID is the sweep ID (the spec name).
	ID string
	// Points are the expanded point specs.
	Points []exp.PointSpec
}

// LoadScenario reads the scenario spec at path and expands it — the steps
// every spec-driven command (llsweep, lingersim, nodesim) shares. A -seed
// flag set explicitly on fs overrides the spec's seed with seed;
// otherwise the spec's seed stands, so the run stays a pure function of
// the file content. A spec that fails to decode or expand is a usage
// error. rec, when non-nil, counts the expanded points under
// scenario.points.expanded.
func LoadScenario(fs *flag.FlagSet, path string, seed int64, quick bool, rec *obs.Recorder) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, Usagef("%v", err)
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			spec.Seed = seed
		}
	})
	id, points, err := scenario.Expand(spec, quick)
	if err != nil {
		return nil, Usagef("%v", err)
	}
	rec.Counter(obs.ScenarioPointsExpanded).Add(int64(len(points)))
	return &Scenario{Spec: spec, ID: id, Points: points}, nil
}
