package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lingerlonger/internal/checkpoint"
	"lingerlonger/internal/cli"
)

// llsweep runs realMain with args on a fresh default flag set.
func llsweep(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"llsweep"}, args...)
	flag.CommandLine = flag.NewFlagSet("llsweep", flag.ContinueOnError)
	return realMain()
}

// writeSpec writes a node spec with the given utilization axis.
func writeSpec(t *testing.T, dir, file, utils string) string {
	t.Helper()
	path := filepath.Join(dir, file)
	spec := `{"scenarioVersion":1,"name":"node","kind":"node","node":{"cs":[0.0001,0.0003,0.0005],"utils":` + utils + `,"dur":50}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A checkpoint resumes only the spec that wrote it: a different spec with
// the same name and seed must be refused, not answered with the first
// spec's points.
func TestCheckpointRejectsDifferentSpec(t *testing.T) {
	dir := t.TempDir()
	low := writeSpec(t, dir, "low.json", "[0.1,0.2]")
	high := writeSpec(t, dir, "high.json", "[0.7,0.8]")
	ckpt := filepath.Join(dir, "ckpt")

	first := filepath.Join(dir, "first.json")
	if err := llsweep(t, "-scenario", low, "-checkpoint", ckpt, "-out", first); err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.json")
	if err := llsweep(t, "-scenario", low, "-checkpoint", ckpt, "-out", resumed); err != nil {
		t.Fatalf("resuming the same spec: %v", err)
	}
	if !bytes.Equal(readFile(t, first), readFile(t, resumed)) {
		t.Error("resumed report differs from the first run")
	}

	err := llsweep(t, "-scenario", high, "-checkpoint", ckpt, "-out", filepath.Join(dir, "high.json.out"))
	var mismatch *checkpoint.MismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("resuming a different spec: err = %v, want a checkpoint mismatch", err)
	}
}

func TestScenarioRequired(t *testing.T) {
	if err := llsweep(t, "-quick"); !cli.IsUsage(err) {
		t.Errorf("run without -scenario: err = %v, want a usage error", err)
	}
}
