package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// The repository's BENCHMARK.json sits one directory up.
const benchJSON = "../BENCHMARK.json"

func TestBenchmarkFileValidates(t *testing.T) {
	f, err := loadBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(f.Workloads), len(workloads))
	}
	// execute measures every end-to-end metric for every workload.
	measured := map[string]bool{"setup_s": true, "wall_s": true, "p50_ms": true, "tail_ms": true, "peak_rss_mb": true}
	for _, m := range f.EndToEnd {
		if !measured[m.Name] {
			t.Errorf("end-to-end metric %q is not measured", m.Name)
		}
	}
}

// mutate decodes BENCHMARK.json into a generic document, applies edit,
// and returns the re-encoded bytes.
func mutate(t *testing.T, edit func(doc map[string]any)) []byte {
	t.Helper()
	data, err := os.ReadFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func list(doc map[string]any, key string) []any { return doc[key].([]any) }

func entry(doc map[string]any, key string, i int) map[string]any {
	return list(doc, key)[i].(map[string]any)
}

func TestBenchmarkFileRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(doc map[string]any)
		want string
	}{
		{"bad metric name", func(d map[string]any) { entry(d, "per_layer", 0)["name"] = "bad name" }, "must match"},
		{"bad workload name", func(d map[string]any) { entry(d, "workloads", 0)["name"] = "-tourney" }, "must match"},
		{"duplicate name", func(d map[string]any) { entry(d, "per_layer", 1)["name"] = "scenario.expand_ms" }, "used twice"},
		{"one workload", func(d map[string]any) { d["workloads"] = list(d, "workloads")[:1] }, "workloads"},
		{"nine workloads", func(d map[string]any) {
			w := list(d, "workloads")
			d["workloads"] = append(append(append([]any{}, w...), w...), w[0])
		}, "workloads"},
		{"17 end-to-end metrics", func(d map[string]any) {
			var ms []any
			for i := 0; i < 17; i++ {
				ms = append(ms, map[string]any{"name": fmt.Sprintf("m%d", i), "unit": "s", "better": "lower", "bound": 0.1})
			}
			d["end_to_end"] = ms
		}, "end-to-end metrics"},
		{"129 per-layer metrics", func(d map[string]any) {
			var ms []any
			for i := 0; i < 129; i++ {
				ms = append(ms, map[string]any{"name": fmt.Sprintf("l%d", i), "unit": "s", "better": "lower"})
			}
			d["per_layer"] = ms
		}, "per-layer metrics"},
		{"missing bound", func(d map[string]any) { delete(entry(d, "end_to_end", 1), "bound") }, "no bound"},
		{"bound above 0.25", func(d map[string]any) { entry(d, "end_to_end", 1)["bound"] = 0.3 }, "out of range"},
		{"setup bound not largest", func(d map[string]any) { entry(d, "end_to_end", 0)["bound"] = 0.01 }, "not the largest"},
		{"per-layer metric without target", func(d map[string]any) {
			d["per_layer"] = append(list(d, "per_layer"), map[string]any{"name": "new.metric", "unit": "s", "better": "lower"})
		}, "names no target"},
		{"target without per-layer metric", func(d map[string]any) { d["per_layer"] = list(d, "per_layer")[1:] }, "not a per-layer metric"},
		{"unknown key", func(d map[string]any) { d["extra"] = 1 }, "unknown field"},
		{"bad unit", func(d map[string]any) { entry(d, "end_to_end", 1)["unit"] = "sec onds" }, "unit"},
		{"bad direction", func(d map[string]any) { entry(d, "end_to_end", 1)["better"] = "faster" }, "better"},
		{"path outside", func(d map[string]any) { d["paths"] = []any{"../x"} }, "inside the repository"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseBenchFile(mutate(t, c.edit))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}
