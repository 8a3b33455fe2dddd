package main

import (
	"testing"
	"time"
)

// tinySize runs every workload in about a second.
var tinySize = size{
	quickTourney: true,
	sweepSpecs:   2,
	coldRate:     200,
	warmRate:     500,
	segment:      300 * time.Millisecond,
	coldBatch:    20,
	warmBatch:    200,
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f, err := loadBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 7, budget: time.Second, size: tinySize}
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				out, err := execute(workloads[w.Name], cfg, traced, tr)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range out.checks {
					t.Errorf("check failed: %s", c)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				defs := f.EndToEnd
				if traced {
					defs = f.PerLayer
					if len(tr.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					if out.metrics["trace_overhead_share"] == 0 {
						t.Error("no trace overhead measured")
					}
				}
				for _, d := range defs {
					v, ok := out.metrics[d.Name]
					if !traced && (!ok || v <= 0) {
						t.Errorf("%s = %g (measured %t)", d.Name, v, ok)
					}
				}
			})
		}
	}
}

func TestTracedLayersCrossed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for w, names := range map[string][]string{
		"tourney":      {"trace.synth_s", "cluster.run_s", "cluster.placements", "node.preemptions", "scenario.rank_ms"},
		"sweep-fabric": {"fabric.task_s", "fabric.useful_ratio", "node.serve_s", "node.preemptions", "stats.sample_share"},
		"serve-warm":   {"serve.cache_hit_ratio", "serve.cache_lookups", "serve.decode_us", "ring.owner_ns", "ring.proxy_share"},
	} {
		cfg := runConfig{seed: 3, budget: time.Second, size: tinySize}
		out, err := execute(workloads[w], cfg, true, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, n := range names {
			if out.metrics[n] <= 0 {
				t.Errorf("%s: %s = %g, want a measured value", w, n, out.metrics[n])
			}
		}
		if w == "serve-warm" && out.metrics["serve.cache_hit_ratio"] != 1 {
			t.Errorf("serve-warm hit ratio %g, want 1", out.metrics["serve.cache_hit_ratio"])
		}
	}
}
