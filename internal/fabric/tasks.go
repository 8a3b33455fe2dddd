package fabric

import (
	"lingerlonger/internal/exp"
	"lingerlonger/internal/scenario"
)

// BuiltinTasks returns a registry holding the repository's standard tasks:
// the scenario task (internal/scenario), which executes the points that
// scenario.Expand produces from a declarative spec. Agents (cmd/lingerd
// -agent) and serial drivers (cmd/llsweep -workers) must register the same
// tasks so a spec means the same computation in every process.
func BuiltinTasks() *exp.Tasks {
	t := exp.NewTasks()
	if err := t.Register(scenario.TaskName, scenario.Task); err != nil {
		panic(err) // unreachable: static name, non-nil func
	}
	return t
}
