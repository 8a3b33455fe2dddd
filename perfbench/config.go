package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// benchFile is BENCHMARK.json at the repository root: the command that
// runs the benchmark, its workloads, and its metrics with their units,
// directions and regression bounds.
type benchFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef is one metric. Bound, the share of the baseline median by
// which the metric may worsen before a change counts as a regression, is
// present on end-to-end metrics only.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// target names the end-to-end metric a per-layer metric should move and
// the workloads on which it should move it.
type target struct {
	metric    string
	workloads []string
}

var (
	everyWorkload = []string{"tourney", "sweep-fabric", "serve-cold", "serve-warm"}
	serveBoth     = []string{"serve-cold", "serve-warm"}
)

// layerTargets is the prediction written down before measuring: which
// end-to-end metric, on which workload, a change in each per-layer metric
// should move. BENCHMARK.json holds the metric list; every per-layer
// metric there must have an entry here.
var layerTargets = map[string]target{
	"scenario.expand_ms":     {"setup_s", []string{"tourney", "sweep-fabric"}},
	"scenario.rank_ms":       {"wall_s", []string{"tourney"}},
	"trace.synth_s":          {"wall_s", []string{"tourney"}},
	"trace.synth_share":      {"wall_s", []string{"tourney"}},
	"cluster.run_s":          {"wall_s", []string{"tourney"}},
	"cluster.placements":     {"wall_s", []string{"tourney"}},
	"cluster.migrations":     {"wall_s", []string{"tourney"}},
	"sim.events":             {"wall_s", []string{"tourney"}},
	"node.serve_s":           {"wall_s", []string{"sweep-fabric"}},
	"node.ns_per_sim_s":      {"wall_s", []string{"sweep-fabric"}},
	"node.preemptions":       {"wall_s", []string{"sweep-fabric"}},
	"stats.sample_ns":        {"wall_s", []string{"sweep-fabric", "tourney"}},
	"stats.sample_share":     {"wall_s", []string{"sweep-fabric"}},
	"fabric.task_s":          {"wall_s", []string{"sweep-fabric"}},
	"fabric.dispatch_us":     {"wall_s", []string{"sweep-fabric"}},
	"fabric.slot_idle_share": {"wall_s", []string{"sweep-fabric"}},
	"fabric.useful_ratio":    {"wall_s", []string{"sweep-fabric"}},
	"fabric.requeued":        {"wall_s", []string{"sweep-fabric"}},
	"serve.decode_us":        {"p50_ms", serveBoth},
	"serve.cachekey_us":      {"p50_ms", []string{"serve-warm"}},
	"serve.cache_hit_ratio":  {"p50_ms", serveBoth},
	"serve.cache_lookups":    {"p50_ms", serveBoth},
	"serve.dedup_waits":      {"p50_ms", []string{"serve-cold"}},
	"serve.shed":             {"tail_ms", serveBoth},
	"serve.owner_p50_ms":     {"p50_ms", serveBoth},
	"serve.proxied_p50_ms":   {"p50_ms", serveBoth},
	"serve.proxy_hop_ms":     {"p50_ms", []string{"serve-warm"}},
	"ring.owner_ns":          {"p50_ms", []string{"serve-warm"}},
	"ring.proxy_share":       {"p50_ms", serveBoth},
	"loadgen.lag_p99_ms":     {"tail_ms", serveBoth},
	"trace_overhead_share":   {"wall_s", everyWorkload},
}

var (
	namePat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathPat = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadBenchFile reads and validates BENCHMARK.json.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parseBenchFile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// parseBenchFile strictly decodes and validates a BENCHMARK.json document.
func parseBenchFile(data []byte) (*benchFile, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("%d bytes (max 64 KiB)", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the document")
	}
	return &f, f.validate()
}

// validate checks the document against the rules for BENCHMARK.json.
func (f *benchFile) validate() error {
	if n := len(f.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings (want 1 to 32)", n)
	}
	for _, s := range f.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			return fmt.Errorf("command string %q is too long or leaves the repository", s)
		}
	}
	if n := len(f.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries (want 1 to 16)", n)
	}
	for _, p := range f.Paths {
		if !pathPat.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path inside the repository", p)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d out of range [1, 60]", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads (want 2 to 8)", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics (want 1 to 16)", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics (want 1 to 128)", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !namePat.MatchString(n) {
			return fmt.Errorf("%s name %q must match %s", kind, n, namePat)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range f.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("workload %q has no implementation", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range f.EndToEnd {
		if err := checkMetric("end-to-end", m, name); err != nil {
			return err
		}
		if m.Bound == nil {
			return fmt.Errorf("end-to-end metric %q has no bound", m.Name)
		}
		if b := *m.Bound; b <= 0 || b > 0.25 {
			return fmt.Errorf("end-to-end metric %q: bound %g out of range (0, 0.25]", m.Name, b)
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				return fmt.Errorf("setup_s must have unit s and better lower")
			}
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 {
		return fmt.Errorf("no setup_s end-to-end metric")
	}
	if setupBound < maxBound {
		return fmt.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range f.PerLayer {
		if err := checkMetric("per-layer", m, name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q has a bound", m.Name)
		}
		if err := f.checkTarget(m.Name); err != nil {
			return err
		}
	}
	for n := range layerTargets {
		if !f.hasLayer(n) {
			return fmt.Errorf("layer target %q is not a per-layer metric", n)
		}
	}
	return nil
}

func checkMetric(kind string, m metricDef, name func(kind, n string) error) error {
	if err := name(kind+" metric", m.Name); err != nil {
		return err
	}
	if !unitPat.MatchString(m.Unit) {
		return fmt.Errorf("metric %q: unit %q must match %s", m.Name, m.Unit, unitPat)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %q: better %q (want lower or higher)", m.Name, m.Better)
	}
	return nil
}

// checkTarget verifies that a per-layer metric names an end-to-end
// metric and existing workloads to move.
func (f *benchFile) checkTarget(layer string) error {
	t, ok := layerTargets[layer]
	if !ok {
		return fmt.Errorf("per-layer metric %q names no target", layer)
	}
	if f.endToEnd(t.metric) == nil {
		return fmt.Errorf("per-layer metric %q targets unknown end-to-end metric %q", layer, t.metric)
	}
	for _, w := range t.workloads {
		if !f.hasWorkload(w) {
			return fmt.Errorf("per-layer metric %q targets unknown workload %q", layer, w)
		}
	}
	return nil
}

func (f *benchFile) endToEnd(name string) *metricDef {
	for i := range f.EndToEnd {
		if f.EndToEnd[i].Name == name {
			return &f.EndToEnd[i]
		}
	}
	return nil
}

func (f *benchFile) hasLayer(name string) bool {
	for _, m := range f.PerLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

func (f *benchFile) hasWorkload(name string) bool {
	for _, w := range f.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
