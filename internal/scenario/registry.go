package scenario

import (
	"fmt"
	"sort"
	"sync"

	"lingerlonger/internal/cluster"
	"lingerlonger/internal/core"
	"lingerlonger/internal/stats"
)

// This file holds the two pluggable registries a spec's names resolve
// against. Registration order is semantic: it is the tournament's
// default policy/workload order and the tie-break order of rankings, so
// builtins register in a fixed sequence and late registrations append.

// PolicyEntry is one registered scheduling policy.
type PolicyEntry struct {
	// Name is the spec-facing identifier ("LL", "FS", ...).
	Name string
	// Policy is the core discipline the cluster simulator runs.
	Policy core.Policy
	// Info is a one-line description for listings.
	Info string
}

// PolicyRegistry maps spec names to scheduling policies, preserving
// registration order.
type PolicyRegistry struct {
	mu    sync.RWMutex
	order []string
	m     map[string]PolicyEntry
}

// NewPolicyRegistry returns an empty policy registry.
func NewPolicyRegistry() *PolicyRegistry {
	return &PolicyRegistry{m: map[string]PolicyEntry{}}
}

// Register adds a policy entry. Empty names and duplicates are errors —
// spec names are a file-format protocol, so silently replacing one would
// change what committed scenarios mean.
func (r *PolicyRegistry) Register(e PolicyEntry) error {
	if e.Name == "" {
		return fmt.Errorf("scenario: policy with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[e.Name]; dup {
		return fmt.Errorf("scenario: policy %q already registered", e.Name)
	}
	r.m[e.Name] = e
	r.order = append(r.order, e.Name)
	return nil
}

// Lookup returns the entry registered under name.
func (r *PolicyRegistry) Lookup(name string) (PolicyEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.m[name]
	return e, ok
}

// Names returns the registered policy names in registration order.
func (r *PolicyRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// WorkloadEntry is one registered foreign-job workload family.
type WorkloadEntry struct {
	// Name is the spec-facing identifier ("w1", "pareto", ...).
	Name string
	// Info is a one-line description for listings.
	Info string
	// Legacy is the paper's workload number when this entry reproduces
	// one (1 or 2); 0 for new families. Result documents carry the
	// legacy number when set, as the committed fig8 golden report pins.
	Legacy int
	// HeavyTailed marks job-size families with tail index <= 2 (or
	// comparable subexponential mass).
	HeavyTailed bool
	// Apply shapes a cluster config for this family: job count, fixed
	// CPU demand or a JobSizes distribution. quick selects the shrunk
	// smoke-run scale for distributional families (the generic quick
	// shrink of fixed-size fields happens in the scenario task after
	// Apply).
	Apply func(cfg *cluster.Config, quick bool)
}

// WorkloadRegistry maps spec names to workload families, preserving
// registration order.
type WorkloadRegistry struct {
	mu    sync.RWMutex
	order []string
	m     map[string]WorkloadEntry
}

// NewWorkloadRegistry returns an empty workload registry.
func NewWorkloadRegistry() *WorkloadRegistry {
	return &WorkloadRegistry{m: map[string]WorkloadEntry{}}
}

// Register adds a workload entry; empty names, nil Apply functions and
// duplicates are errors.
func (r *WorkloadRegistry) Register(e WorkloadEntry) error {
	if e.Name == "" {
		return fmt.Errorf("scenario: workload with empty name")
	}
	if e.Apply == nil {
		return fmt.Errorf("scenario: workload %q with nil Apply", e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[e.Name]; dup {
		return fmt.Errorf("scenario: workload %q already registered", e.Name)
	}
	r.m[e.Name] = e
	r.order = append(r.order, e.Name)
	return nil
}

// Lookup returns the entry registered under name.
func (r *WorkloadRegistry) Lookup(name string) (WorkloadEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.m[name]
	return e, ok
}

// Names returns the registered workload names in registration order.
func (r *WorkloadRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// HeavyTailedNames returns the registered heavy-tailed workload names,
// sorted (a convenience for listings and tests).
func (r *WorkloadRegistry) HeavyTailedNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.order {
		if r.m[n].HeavyTailed {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Policies is the process-wide policy registry: the paper's four
// disciplines plus the fractional-share fifth.
var Policies = NewPolicyRegistry()

// Workloads is the process-wide workload registry: the paper's two
// batch families, a balanced third, and two heavy-tailed job-size
// families.
var Workloads = NewWorkloadRegistry()

// fixedWorkload builds an Apply for a fixed-size family: jobs x cpuSecs.
func fixedWorkload(jobs, cpuSecs float64) func(*cluster.Config, bool) {
	return func(cfg *cluster.Config, quick bool) {
		cfg.NumJobs = jobs
		cfg.JobCPU = cpuSecs
		cfg.JobSizes = nil
	}
}

// distWorkload builds an Apply for a distributional job-size family.
// mean is the full-scale mean CPU demand; quick runs scale it to the
// smoke size (120 s, the same value the generic quick shrink pins JobCPU
// to), and every draw is clamped to [1, 40*mean] so a heavy tail cannot
// outlive the simulation horizon.
func distWorkload(jobs float64, dist func(mean float64) stats.Distribution) func(*cluster.Config, bool) {
	return func(cfg *cluster.Config, quick bool) {
		mean := 600.0
		if quick {
			mean = 120
		}
		cfg.NumJobs = jobs
		cfg.JobCPU = mean
		cfg.JobSizes = stats.Clamped{Dist: dist(mean), Lo: 1, Hi: 40 * mean}
	}
}

func mustRegisterBuiltins() {
	for _, e := range []PolicyEntry{
		{Name: "LL", Policy: core.LingerLonger, Info: "linger at low priority, migrate per the cost model (§2)"},
		{Name: "LF", Policy: core.LingerForever, Info: "linger at low priority, never migrate"},
		{Name: "IE", Policy: core.ImmediateEviction, Info: "migrate or requeue the moment the owner returns"},
		{Name: "PM", Policy: core.PauseAndMigrate, Info: "suspend in place, migrate when the pause expires"},
		{Name: "FS", Policy: core.FractionalShare, Info: "split the CPU with the owner (dynamic fractional resource scheduling)"},
	} {
		if err := Policies.Register(e); err != nil {
			panic(err) // unreachable: static names
		}
	}
	for _, e := range []WorkloadEntry{
		{Name: "w1", Legacy: 1, Info: "paper workload 1: 128 jobs x 600 CPU-s (two per node)",
			Apply: fixedWorkload(128, 600)},
		{Name: "w2", Legacy: 2, Info: "paper workload 2: 16 jobs x 1800 CPU-s (a quarter of the nodes)",
			Apply: fixedWorkload(16, 1800)},
		{Name: "w3", Info: "balanced workload: 64 jobs x 900 CPU-s (one per node)",
			Apply: fixedWorkload(64, 900)},
		{Name: "pareto", HeavyTailed: true,
			Info: "128 jobs, Pareto(alpha=1.5) CPU demands, mean 600 s clamped to [1, 24000]",
			Apply: distWorkload(128, func(mean float64) stats.Distribution {
				// Mean of Pareto is alpha*scale/(alpha-1) = 3*scale at alpha=1.5.
				return stats.Pareto{Scale: mean / 3, Alpha: 1.5}
			})},
		{Name: "lognormal", HeavyTailed: true,
			Info: "128 jobs, log-normal(sigma=1.5) CPU demands, mean 600 s clamped to [1, 24000]",
			Apply: distWorkload(128, func(mean float64) stats.Distribution {
				return stats.NewLognormalMean(mean, 1.5)
			})},
	} {
		if err := Workloads.Register(e); err != nil {
			panic(err) // unreachable: static names
		}
	}
}

func init() { mustRegisterBuiltins() }
