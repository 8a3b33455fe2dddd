// Command lingersim runs the sequential-job cluster experiments of the
// paper (§4.2): the Figure 7 policy-comparison table and the Figure 8
// per-state time breakdown, on a simulated cluster of workstations
// replaying synthetic coarse-grain traces.
//
// Usage:
//
//	lingersim [-nodes 64] [-workload 1|2] [-policy LL|LF|IE|PM|all]
//	          [-breakdown] [-seed 1] [-tpdur 3600] [-machines 16] [-days 2]
//	          [-metrics FILE] [-events FILE] [-cpuprofile FILE] [-memprofile FILE]
//
//	lingersim -scenario scenarios/fig8.json [-quick] [-seed N]
//	          Run a declarative cluster scenario spec (internal/scenario)
//	          instead of the flag-driven experiment: every expanded point is
//	          computed and printed as one table row. The spec's seed is used
//	          unless -seed is given explicitly.
//
// The observability flags record what a run did — per-policy scheduling
// counters, a JSONL event trace of placements/migrations/evictions/
// lingers, pprof profiles — without participating in it; enabling them
// never changes results (see OBSERVABILITY.md).
//
// Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lingerlonger/internal/cli"
	"lingerlonger/internal/cluster"
	"lingerlonger/internal/core"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

func main() {
	cli.Run("lingersim", realMain)
}

func realMain() (err error) {
	var o cli.Obs
	o.RegisterFlags()
	var (
		nodes     = flag.Int("nodes", 64, "cluster size")
		workload  = flag.Int("workload", 1, "paper workload: 1 (128x600s) or 2 (16x1800s)")
		policy    = flag.String("policy", "all", "scheduling policy: LL, LF, IE, PM, or all")
		breakdown = flag.Bool("breakdown", false, "also print the Figure 8 state breakdown")
		seed      = flag.Int64("seed", 1, "simulation seed")
		tpdur     = flag.Float64("tpdur", 3600, "throughput-run duration, seconds")
		machines  = flag.Int("machines", 16, "trace corpus size")
		days      = flag.Int("days", 2, "trace length, days")
		scenPath  = flag.String("scenario", "", "run a cluster scenario spec `file` instead of the flag-driven experiment")
		quick     = flag.Bool("quick", false, "scenario mode: smoke-run scale")
		workers   = flag.Int("workers", 1, "scenario mode: worker pool size")
	)
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("lingersim")
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

	tcfg := trace.DefaultConfig()
	tcfg.Days = *days
	corpus, err := trace.GenerateCorpus(tcfg, *machines, stats.NewRNG(*seed))
	if err != nil {
		return err
	}

	var cfg cluster.Config
	switch *workload {
	case 1:
		cfg = cluster.Workload1(core.LingerLonger)
	case 2:
		cfg = cluster.Workload2(core.LingerLonger)
	default:
		return cli.Usagef("unknown workload %d (want 1 or 2)", *workload)
	}
	cfg.Nodes = *nodes
	cfg.Seed = *seed
	cfg.Rec = o.Recorder()

	pols := core.Policies
	if *policy != "all" {
		p, err := core.ParsePolicy(*policy)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		pols = []core.Policy{p}
	}

	fmt.Printf("Figure 7 — workload %d on %d nodes (%d jobs x %.0f CPU-s, %.0f MB images)\n",
		*workload, cfg.Nodes, int(cfg.NumJobs), cfg.JobCPU, cfg.JobMB)
	fmt.Printf("%-6s %12s %10s %12s %12s %10s\n",
		"policy", "avg job (s)", "variation", "family (s)", "throughput", "delay")
	for _, p := range pols {
		c := cfg
		c.Policy = p
		batch, err := cluster.Run(c, corpus)
		if err != nil {
			return err
		}
		tp, err := cluster.RunThroughput(c, corpus, *tpdur)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %12.0f %9.1f%% %12.0f %12.1f %9.2f%%\n",
			p, batch.AvgCompletion, 100*batch.Variation, batch.FamilyTime,
			tp.Throughput, 100*batch.LocalDelay)
		if batch.Incomplete > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d jobs incomplete at MaxTime under %v\n", batch.Incomplete, p)
		}
		if *breakdown {
			b := batch.Breakdown
			fmt.Printf("       breakdown: queued %.0f  run %.0f  linger %.0f  paused %.0f  migrate %.0f\n",
				b.Queued, b.Running, b.Lingering, b.Paused, b.Migrating)
		}
	}
	return nil
}

// runScenario runs a cluster scenario spec and prints one table row per
// expanded point. An explicit -seed overrides the spec's seed, matching
// llsweep's precedence rule.
func runScenario(path string, seed int64, quick bool, workers int, o *cli.Obs) error {
	rec := o.Recorder()
	sc, err := cli.LoadScenario(flag.CommandLine, path, seed, quick, rec)
	if err != nil {
		return err
	}
	if sc.Spec.Kind != scenario.KindCluster {
		return cli.Usagef("%s: kind %q (lingersim runs cluster scenarios; use nodesim for node ones)", path, sc.Spec.Kind)
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
	fmt.Printf("%-10s %-6s %12s %10s %12s %10s %6s\n",
		"workload", "policy", "avg job (s)", "variation", "family (s)", "delay", "inc")
	for i, raw := range results {
		var pt scenario.ClusterPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		fmt.Printf("%-10v %-6s %12.0f %9.1f%% %12.0f %9.2f%% %6d\n",
			pt.Workload, pt.Policy, pt.AvgCompletion, 100*pt.Variation,
			pt.FamilyTime, 100*pt.LocalDelay, pt.Incomplete)
	}
	return nil
}
