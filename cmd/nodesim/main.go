// Command nodesim runs the single-node impact study (§4.1, Figure 5): the
// local job delay ratio (LDR) and fine-grain cycle stealing ratio (FCSR)
// of a lingering compute-bound foreign job across local utilization levels
// and effective context-switch times.
//
// Usage:
//
//	nodesim [-dur 2000] [-seed 1] [-cs 100,300,500]
//	        [-metrics FILE] [-events FILE] [-cpuprofile FILE] [-memprofile FILE]
//
//	nodesim -scenario scenarios/node.json [-quick] [-seed N]
//	        Run a declarative node scenario spec (internal/scenario) instead
//	        of the flag-driven grid; the spec's seed is used unless -seed is
//	        given explicitly.
//
// The observability flags record what a run did (node.preemptions, pprof
// profiles) without participating in it; see OBSERVABILITY.md.
//
// Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"lingerlonger/internal/cli"
	"lingerlonger/internal/node"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/workload"
)

func main() {
	cli.Run("nodesim", realMain)
}

func realMain() (err error) {
	var o cli.Obs
	o.RegisterFlags()
	var (
		dur      = flag.Float64("dur", 2000, "simulated seconds per point")
		seed     = flag.Int64("seed", 1, "simulation seed")
		csList   = flag.String("cs", "100,300,500", "effective context-switch times, microseconds")
		scenPath = flag.String("scenario", "", "run a node scenario spec `file` instead of the flag-driven grid")
		quick    = flag.Bool("quick", false, "scenario mode: smoke-run scale")
		workers  = flag.Int("workers", 1, "scenario mode: worker pool size")
	)
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("nodesim")
	}
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if *scenPath == "" && (*quick || *workers != 1) {
		return cli.Usagef("-quick and -workers apply only with -scenario")
	}
	if err := o.Start(); err != nil {
		return err
	}
	defer o.Finish(&err)

	if *scenPath != "" {
		return runScenario(*scenPath, *seed, *quick, *workers, &o)
	}

	cfg := node.DefaultFig5Config()
	cfg.Duration = *dur
	cfg.Seed = *seed
	cfg.Rec = o.Recorder()
	cfg.ContextSwitches = nil
	for _, s := range strings.Split(*csList, ",") {
		us, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return cli.Usagef("bad -cs value %q: %v", s, err)
		}
		cfg.ContextSwitches = append(cfg.ContextSwitches, us*1e-6)
	}

	pts := node.Fig5(workload.DefaultTable(), cfg)
	fmt.Println("Figure 5 — Linger-Longer scheduling impact on one node")
	fmt.Printf("%8s %10s %10s %10s\n", "util", "cs (µs)", "LDR", "FCSR")
	for _, p := range pts {
		fmt.Printf("%7.0f%% %10.0f %9.2f%% %9.1f%%\n",
			100*p.Utilization, p.ContextSwitch*1e6, 100*p.LDR, 100*p.FCSR)
	}
	return nil
}

// runScenario runs a node scenario spec and prints the Figure-5 table for
// its expanded grid. An explicit -seed overrides the spec's seed, matching
// llsweep's precedence rule.
func runScenario(path string, seed int64, quick bool, workers int, o *cli.Obs) error {
	rec := o.Recorder()
	sc, err := cli.LoadScenario(flag.CommandLine, path, seed, quick, rec)
	if err != nil {
		return err
	}
	if sc.Spec.Kind != scenario.KindNode {
		return cli.Usagef("%s: kind %q (nodesim runs node scenarios; use lingersim for cluster ones)", path, sc.Spec.Kind)
	}
	results, err := scenario.Run(workers, sc.Points, rec)
	if err != nil {
		return err
	}
	digest, err := sc.Spec.Digest()
	if err != nil {
		return err
	}
	fmt.Printf("Scenario %s (seed %d, %d points, digest %.12s...)\n", sc.ID, sc.Spec.Seed, len(sc.Points), digest)
	fmt.Printf("%8s %10s %10s %10s\n", "util", "cs (µs)", "LDR", "FCSR")
	for i, raw := range results {
		var pt scenario.NodePoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		fmt.Printf("%7.0f%% %10.0f %9.2f%% %9.1f%%\n",
			100*pt.Utilization, pt.ContextSwitch*1e6, 100*pt.LDR, 100*pt.FCSR)
	}
	return nil
}
