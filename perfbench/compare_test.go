package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := metricDef{Name: "rate", Better: "higher", Bound: &bound}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{10, 10.2, 9.8, 10.1, 9.95}, unchanged},
		{"slower past the bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, regressed},
		{"faster past the bound", lower, steady, []float64{8.5, 8.6, 8.4, 8.5, 8.55}, improved},
		{"lower rate is worse", higher, steady, []float64{8.5, 8.6, 8.4, 8.5, 8.55}, regressed},
		{"spread wider than the bound", lower, steady, []float64{8, 12, 10, 14, 9}, unresolved},
		{"wide but every run better", lower, []float64{20, 30, 25, 22, 28}, []float64{10, 15, 12, 11, 14}, improved},
		{"too few runs", lower, steady[:2], steady[:2], unresolved},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsRegression(t *testing.T) {
	f, err := loadBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, wall float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			r := record{Workload: "tourney", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"wall_s": {Value: wall + 0.01*float64(i), Unit: "s"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 6), write("b.jsonl", 9)
	var out, errOut bytes.Buffer
	if code := runCompare(f, a, b, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 on a regression; stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "tourney") {
		t.Errorf("output does not report the regression:\n%s", out.String())
	}
	if code := runCompare(f, a, a, &out, &errOut); code != 0 {
		t.Errorf("comparing a file with itself: exit %d", code)
	}
}

// Incorrect or failing runs of B leave it with no metric values; the
// comparison must still fail.
func TestCompareFlagsIncorrectRuns(t *testing.T) {
	f, err := loadBenchFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	good := []record{{Workload: "serve-cold", Result: result{Correct: true, Attempted: 100}}}
	for _, c := range []struct {
		name string
		b    []record
		want bool
	}{
		{"all of B incorrect", []record{
			{Workload: "serve-cold", Result: result{Correct: false, Attempted: 100}},
			{Workload: "serve-cold", Result: result{Correct: false, Attempted: 100, Failed: 3}},
		}, true},
		{"B run did not finish", []record{{Workload: "serve-cold", Result: result{Attempted: 1, Failed: 1}}}, true},
		{"B has no runs", nil, true},
		{"B failed more", []record{{Workload: "serve-cold", Result: result{Correct: true, Attempted: 100, Failed: 1}}}, true},
		{"B as good", good, false},
	} {
		var out bytes.Buffer
		if got := compare(&out, f, good, c.b); got != c.want {
			t.Errorf("%s: regressed %t, want %t\n%s", c.name, got, c.want, out.String())
		}
	}
}
