package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workloads maps each workload name of BENCHMARK.json to its
// implementation.
var workloads = map[string]func(runConfig) bench{
	"tourney":      newTourney,
	"sweep-fabric": newSweep,
	"serve-cold":   newServeCold,
	"serve-warm":   newServeWarm,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain returns the exit code: 0 on success, 1 when a run fails, a
// check fails or a comparison finds a regression, 2 on usage errors.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
		seed      = fs.Int64("seed", 1, "seed the workload inputs derive from")
		seconds   = fs.Int("seconds", 0, "length of the run in seconds, set-ups and passes; 0 takes run_seconds from the benchmark file")
		traceFlag = fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics instead of the end-to-end ones")
		recordTo  = fs.String("record", "", "append each run's result to this results file")
		cmp       = fs.Bool("compare", false, "compare results files A and B (the arguments) under the benchmark's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := loadBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two results files: baseline A and change B")
			return 2
		}
		return runCompare(f, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d (want 0 or 1)\n", *traceFlag)
		return 2
	}
	if *seconds == 0 {
		*seconds = f.RunSeconds
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds %d must be positive\n", *seconds)
		return 2
	}
	if *wl == "" {
		return runAll(f, *seed, *seconds, *traceFlag, *recordTo, stdout, stderr)
	}
	if !f.hasWorkload(*wl) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, size: fullSize}
	return runOne(f, *wl, cfg, *traceFlag == 1, *recordTo, stdout, stderr)
}

// runOne runs one workload in this process and prints its metrics, one
// "workload metric value unit" line each, then the result object as the
// last line of standard output. A traced run writes its spans to
// .bench_build/spans-<workload>.jsonl.
func runOne(f *benchFile, name string, cfg runConfig, traced bool, recordTo string, stdout, stderr io.Writer) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rec := record{Workload: name, Seed: cfg.seed}
	if traced {
		rec.Trace = 1
	}
	out, err := execute(workloads[name], cfg, traced, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		if recordTo != "" {
			// A run that could not finish counts as one failed operation,
			// so a comparison sees it.
			rec.Result = result{Attempted: 1, Failed: 1}
			if err := appendRecord(recordTo, rec); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
			}
		}
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	for _, c := range out.checks {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", c)
	}
	defs := f.EndToEnd
	if traced {
		defs = f.PerLayer
	}
	res := result{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !traced {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", name, d.Name)
			return 1
		}
		// A layer the workload does not cross has no span and reads 0.
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	if traced {
		spansPath := filepath.Join(".bench_build", "spans-"+name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := tr.writeFile(spansPath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), spansPath)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if recordTo != "" {
		rec.Result = res
		if err := appendRecord(recordTo, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each in a fresh child process of this
// program so memory and GC state stay per workload, and fails if any
// child fails.
func runAll(f *benchFile, seed int64, seconds, traceFlag int, recordTo string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range f.Workloads {
		args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFlag)}
		if recordTo != "" {
			args = append(args, "--record", recordTo)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// runCompare compares two results files and fails on a regression.
func runCompare(f *benchFile, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if compare(stdout, f, a, b) {
		return 1
	}
	return 0
}
