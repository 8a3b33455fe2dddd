// Package scenario is the declarative front door of the simulator: a
// versioned JSON scenario spec plus pluggable policy and workload
// registries that together make (workload x policy x cluster shape x
// seeds) a first-class input instead of a hardcoded figure driver.
//
// A spec decodes strictly (size-capped, unknown fields rejected,
// version-checked — the llserve request style) and normalizes to a fully
// explicit canonical form: every default is materialized, so two
// spellings of the same scenario share one canonical byte string and
// therefore one Digest. The digest is the llserve cache key for scenario
// requests and the identity field of tournament reports.
//
// Expansion turns a spec into exp.PointSpec values for the "scenario"
// task (registered in fabric.BuiltinTasks), with per-point seeds derived
// via exp.DeriveSeed(spec.Seed, index). Every execution path — serial,
// local pool, distributed fabric, llserve — therefore computes identical
// bytes for a given (spec, seed, quick), and the committed specs under
// scenarios/ reproduce the golden figure reports under
// internal/fabric/testdata byte for byte.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"lingerlonger/internal/node"
)

// SpecVersion is the scenario schema version this package reads and
// writes. Decode rejects any other value, so version skew between a spec
// file and the binary is a clean error, never a misinterpretation.
const SpecVersion = 1

// MaxSpecBytes caps the size of a spec document accepted by Decode.
const MaxSpecBytes = 1 << 20

// ErrInvalidSpec tags every Decode/normalization failure; callers map it
// to a user error (exit code 2, HTTP 400) with errors.Is.
var ErrInvalidSpec = errors.New("scenario: invalid spec")

// Spec kinds: which simulator a scenario drives.
const (
	// KindCluster runs the shared-cluster simulator (Figures 7-8 shape):
	// policies x workloads over a synthetic trace corpus.
	KindCluster = "cluster"
	// KindNode runs the single-workstation fine-grain model (Figure 5
	// shape): a context-switch x utilization grid reporting LDR and FCSR.
	KindNode = "node"
)

// Spec is one declarative scenario. The zero value is not usable; specs
// come from Decode (which normalizes) or from builders that call
// Normalize themselves.
type Spec struct {
	// Version must equal SpecVersion.
	Version int `json:"scenarioVersion"`
	// Name identifies the scenario: it becomes the sweep ID, the report
	// identity, and the checkpoint key. Lowercase [a-z0-9._-], max 64.
	Name string `json:"name"`
	// Kind selects the simulator: KindCluster or KindNode.
	Kind string `json:"kind"`
	// Policy is the registered policy name for cluster scenarios
	// (default "LL"); the sweep axes override it when set.
	Policy string `json:"policy,omitempty"`
	// Workload is the registered workload name for cluster scenarios
	// (default "w1"); the sweep axes override it when set.
	Workload string `json:"workload,omitempty"`
	// Cluster holds cluster-shape parameters (cluster kind only).
	Cluster *ClusterParams `json:"cluster,omitempty"`
	// Trace holds the trace-corpus parameters (cluster kind only).
	Trace *TraceParams `json:"trace,omitempty"`
	// Node holds the workstation-model axes (node kind only).
	Node *NodeParams `json:"node,omitempty"`
	// Sweep declares the axes a cluster scenario expands over.
	Sweep *Axes `json:"sweep,omitempty"`
	// Seed is the master seed; per-point seeds derive from it via
	// exp.DeriveSeed(Seed, index). 0 normalizes to 1.
	Seed int64 `json:"seed,omitempty"`
}

// ClusterParams shapes the simulated cluster. Zero fields normalize to
// the paper defaults (cluster.DefaultConfig). Times are in seconds — the
// spec carries contextSwitch in seconds precisely so a JSON literal like
// 100e-6 round-trips to the exact float64 the legacy drivers use.
type ClusterParams struct {
	// Nodes is the cluster size (default 64; quick runs force 16).
	Nodes int `json:"nodes,omitempty"`
	// JobMB is the process image size in megabytes (default 8).
	JobMB float64 `json:"jobMB,omitempty"`
	// MemoryCheck requires free memory >= JobMB at placement
	// (default true; tri-state so "false" survives normalization).
	MemoryCheck *bool `json:"memoryCheck,omitempty"`
	// PauseTime is the PM suspend interval in seconds (default 30).
	PauseTime float64 `json:"pauseTime,omitempty"`
	// ContextSwitch is the effective context-switch time in seconds
	// (default 100e-6).
	ContextSwitch float64 `json:"contextSwitch,omitempty"`
	// MaxTime is the simulation horizon in seconds (default 200000).
	MaxTime float64 `json:"maxTime,omitempty"`
}

// TraceParams shapes the synthetic workstation-trace corpus every
// cluster node replays.
type TraceParams struct {
	// Machines is the corpus size (default 16; quick runs force 6).
	Machines int `json:"machines,omitempty"`
	// Days is the trace length per machine (default 7; quick forces 1).
	Days int `json:"days,omitempty"`
}

// NodeParams are the axes of a node-kind scenario: the Figure 5 grid.
type NodeParams struct {
	// ContextSwitches lists the context-switch times in seconds
	// (default 100e-6, 300e-6, 500e-6).
	ContextSwitches []float64 `json:"cs,omitempty"`
	// Utilizations lists the owner CPU utilizations (default 0 to 0.90
	// in steps of 0.05). Quick expansion replaces them with the fixed
	// smoke grid {0, 0.3, 0.6, 0.9}.
	Utilizations []float64 `json:"utils,omitempty"`
	// Duration is the simulated seconds per point (default 2000;
	// quick expansion forces 200).
	Duration float64 `json:"dur,omitempty"`
}

// Axes declares the sweep dimensions of a cluster scenario. Empty lists
// mean "the singleton axis from the top-level Policy/Workload field".
type Axes struct {
	// Policies lists registered policy names to sweep (inner axis).
	Policies []string `json:"policies,omitempty"`
	// Workloads lists registered workload names to sweep (outer axis).
	Workloads []string `json:"workloads,omitempty"`
	// Seeds is the number of replications per cell, each with its own
	// derived seed (default 1, innermost axis).
	Seeds int `json:"seeds,omitempty"`
}

// badf builds an ErrInvalidSpec-wrapped error.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Decode strictly parses and normalizes a scenario spec: oversized
// documents, malformed JSON, unknown fields, trailing data, version skew
// and out-of-range values are all rejected with errors wrapping
// ErrInvalidSpec. The returned spec is normalized — canonical form,
// ready for Canonical/Digest/Expand.
func Decode(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, badf("spec is %d bytes (max %d)", len(data), MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := new(Spec)
	if err := dec.Decode(s); err != nil {
		return nil, badf("decode: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badf("trailing data after spec document")
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Normalize validates the spec and materializes every default so the
// spec is in canonical form. It is idempotent: normalizing a normalized
// spec changes nothing — the property that makes Digest stable across
// re-encoding round trips (fuzzed in decode_fuzz_test.go).
func (s *Spec) Normalize() error {
	switch s.Version {
	case SpecVersion:
	case 0:
		return badf("missing scenarioVersion (want %d)", SpecVersion)
	default:
		return badf("scenarioVersion %d not supported (want %d)", s.Version, SpecVersion)
	}
	if err := checkName(s.Name); err != nil {
		return err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Kind {
	case KindCluster:
		return s.normalizeCluster()
	case KindNode:
		return s.normalizeNode()
	default:
		return badf("kind %q (want %q or %q)", s.Kind, KindCluster, KindNode)
	}
}

// checkName enforces the scenario-name charset (the name becomes a sweep
// ID, checkpoint key and file name).
func checkName(name string) error {
	if name == "" {
		return badf("missing name")
	}
	if len(name) > 64 {
		return badf("name %q longer than 64 bytes", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return badf("name %q: character %q not in [a-z0-9._-]", name, c)
		}
	}
	return nil
}

func (s *Spec) normalizeCluster() error {
	if s.Node != nil {
		return badf("node params are only valid for kind %q", KindNode)
	}
	if s.Policy == "" {
		s.Policy = "LL"
	}
	if _, ok := Policies.Lookup(s.Policy); !ok {
		return badf("policy %q not registered (have %v)", s.Policy, Policies.Names())
	}
	if s.Workload == "" {
		s.Workload = "w1"
	}
	if _, ok := Workloads.Lookup(s.Workload); !ok {
		return badf("workload %q not registered (have %v)", s.Workload, Workloads.Names())
	}
	if s.Cluster == nil {
		s.Cluster = &ClusterParams{}
	}
	if err := s.Cluster.normalize(); err != nil {
		return err
	}
	if s.Trace == nil {
		s.Trace = &TraceParams{}
	}
	if err := s.Trace.normalize(); err != nil {
		return err
	}
	if s.Sweep != nil {
		if err := s.Sweep.normalize(); err != nil {
			return err
		}
		if s.Sweep.isSingleton() {
			s.Sweep = nil // canonical: an empty axes block means none
		}
	}
	return nil
}

func (s *Spec) normalizeNode() error {
	if s.Policy != "" || s.Workload != "" || s.Cluster != nil || s.Trace != nil || s.Sweep != nil {
		return badf("policy/workload/cluster/trace/sweep are only valid for kind %q", KindCluster)
	}
	if s.Node == nil {
		s.Node = &NodeParams{}
	}
	return s.Node.normalize()
}

func (c *ClusterParams) normalize() error {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.JobMB == 0 {
		c.JobMB = 8
	}
	if c.MemoryCheck == nil {
		t := true
		c.MemoryCheck = &t
	}
	if c.PauseTime == 0 {
		c.PauseTime = 30
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = node.DefaultContextSwitch
	}
	if c.MaxTime == 0 {
		c.MaxTime = 200000
	}
	return c.check()
}

// check applies the range bounds of normalized cluster params. Normalize
// runs it after filling the defaults, and a point computes only params
// that pass it, since a work RPC's params never went through Normalize.
func (c *ClusterParams) check() error {
	if c.Nodes < 1 || c.Nodes > 4096 {
		return badf("cluster.nodes %d out of range [1, 4096]", c.Nodes)
	}
	if c.JobMB < 0 || c.JobMB > 1024 || !isFinite(c.JobMB) {
		return badf("cluster.jobMB %g out of range [0, 1024]", c.JobMB)
	}
	if c.PauseTime < 0 || c.PauseTime > 1e4 || !isFinite(c.PauseTime) {
		return badf("cluster.pauseTime %g out of range [0, 1e4]", c.PauseTime)
	}
	if c.ContextSwitch < 0 || c.ContextSwitch > 0.1 || !isFinite(c.ContextSwitch) {
		return badf("cluster.contextSwitch %g out of range [0, 0.1] seconds", c.ContextSwitch)
	}
	if c.MaxTime <= 0 || c.MaxTime > 1e7 || !isFinite(c.MaxTime) {
		return badf("cluster.maxTime %g out of range (0, 1e7]", c.MaxTime)
	}
	return nil
}

func (t *TraceParams) normalize() error {
	if t.Machines == 0 {
		t.Machines = 16
	}
	if t.Days == 0 {
		t.Days = 7
	}
	return t.check()
}

// check applies the range bounds of normalized trace params; see
// ClusterParams.check.
func (t *TraceParams) check() error {
	if t.Machines < 1 || t.Machines > 256 {
		return badf("trace.machines %d out of range [1, 256]", t.Machines)
	}
	if t.Days < 1 || t.Days > 31 {
		return badf("trace.days %d out of range [1, 31]", t.Days)
	}
	return nil
}

func (n *NodeParams) normalize() error {
	if len(n.ContextSwitches) == 0 {
		n.ContextSwitches = []float64{100e-6, 300e-6, 500e-6}
	}
	if len(n.ContextSwitches) > 16 {
		return badf("node.cs lists %d values (max 16)", len(n.ContextSwitches))
	}
	for _, cs := range n.ContextSwitches {
		if err := checkCS(cs); err != nil {
			return err
		}
	}
	if len(n.Utilizations) == 0 {
		for i := 0; i <= 18; i++ {
			n.Utilizations = append(n.Utilizations, float64(i)*5/100)
		}
	}
	if len(n.Utilizations) > 64 {
		return badf("node.utils lists %d values (max 64)", len(n.Utilizations))
	}
	for _, u := range n.Utilizations {
		if err := checkUtil(u); err != nil {
			return err
		}
	}
	if n.Duration == 0 {
		n.Duration = 2000
	}
	return checkDuration(n.Duration)
}

// The range bounds of one node cell, shared by NodeParams.normalize and
// NodeCell.check.
func checkCS(cs float64) error {
	if cs <= 0 || cs > 0.1 || !isFinite(cs) {
		return badf("node.cs value %g out of range (0, 0.1] seconds", cs)
	}
	return nil
}

func checkUtil(u float64) error {
	if u < 0 || u > 0.99 || !isFinite(u) {
		return badf("node.utils value %g out of range [0, 0.99]", u)
	}
	return nil
}

func checkDuration(d float64) error {
	if d <= 0 || d > 1e6 || !isFinite(d) {
		return badf("node.dur %g out of range (0, 1e6] seconds", d)
	}
	return nil
}

func (a *Axes) normalize() error {
	if err := checkAxis("sweep.policies", a.Policies, Policies.Names(), func(n string) bool {
		_, ok := Policies.Lookup(n)
		return ok
	}); err != nil {
		return err
	}
	if err := checkAxis("sweep.workloads", a.Workloads, Workloads.Names(), func(n string) bool {
		_, ok := Workloads.Lookup(n)
		return ok
	}); err != nil {
		return err
	}
	if a.Seeds == 0 {
		a.Seeds = 1
	}
	if a.Seeds < 1 || a.Seeds > 1000 {
		return badf("sweep.seeds %d out of range [1, 1000]", a.Seeds)
	}
	return nil
}

// isSingleton reports whether the normalized axes add nothing over the
// top-level singleton fields, so the canonical form can drop the block.
func (a *Axes) isSingleton() bool {
	return len(a.Policies) == 0 && len(a.Workloads) == 0 && a.Seeds == 1
}

// checkAxis validates one axis list: every entry registered, no
// duplicates, bounded length.
func checkAxis(what string, list, have []string, ok func(string) bool) error {
	if len(list) > 64 {
		return badf("%s lists %d entries (max 64)", what, len(list))
	}
	seen := make(map[string]bool, len(list))
	for _, n := range list {
		if !ok(n) {
			return badf("%s entry %q not registered (have %v)", what, n, have)
		}
		if seen[n] {
			return badf("%s entry %q listed twice", what, n)
		}
		seen[n] = true
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Canonical returns the compact canonical encoding of a normalized spec:
// every default materialized, fields in schema order. Two specs meaning
// the same scenario produce identical bytes.
func (s *Spec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// Digest returns the hex SHA-256 of the canonical encoding — the spec's
// stable identity, used as the llserve cache routing key and stamped
// into tournament reports.
func (s *Spec) Digest() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}
