// Command llsweep runs the sweep a declarative scenario spec (internal/
// scenario) expands to — serially, on a local worker pool, or distributed
// across a cluster of lingerd agent processes — and emits a deterministic
// JSON report. The spec's name becomes the sweep ID and its seed the
// report seed unless -seed is given explicitly. The paper's figure sweeps
// are the committed specs: scenarios/node.json is Figure 5's one-node
// grid and scenarios/fig8.json the Figures 7-8 policy comparison.
//
//	llsweep -scenario scenarios/node.json -quick -workers 1
//	    Serial reference run: the byte-exact baseline every other
//	    execution mode must reproduce.
//
//	llsweep -scenario scenarios/fig8.json -workers 4
//	    Local pool: the same points on four workers, same bytes.
//
//	llsweep -scenario scenarios/node.json -quick -agents 127.0.0.1:7101,127.0.0.1:7102
//	    Distributed run: partition the same points across agent processes
//	    (lingerd -agent) with at-most-once dispatch, per-call deadlines,
//	    bounded retry, suspect/dead health tracking, and automatic
//	    re-execution of points lost to a dead agent.
//
//	llsweep ... -checkpoint DIR
//	    Persist completed points and resume an interrupted run; serial and
//	    fabric runs share the same snapshot format, so a run can switch
//	    modes between attempts. The checkpoint is keyed by the spec's
//	    digest, so resuming with a different spec fails loudly.
//
//	llsweep ... -fault drop=0.05,seed=42
//	    Apply the deterministic fault injector to every fabric call (the
//	    lingerd -fault spec syntax); the report bytes must not change.
//
// The report on stdout is a pure function of (spec, seed, quick): agent
// count, worker count, faults, retries, and resumption never change a
// byte. Execution details go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lingerlonger/internal/checkpoint"
	"lingerlonger/internal/cli"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/runtime"
)

func main() {
	cli.Run("llsweep", realMain)
}

func realMain() (err error) {
	var o cli.Obs
	o.RegisterFlags()
	link := cli.LinkFlags(flag.CommandLine)
	var (
		scenPath  = flag.String("scenario", "", "scenario spec `file` to run (required), e.g. scenarios/node.json")
		seed      = flag.Int64("seed", 1, "master seed overriding the spec's; per-point seeds derive from it")
		quick     = flag.Bool("quick", false, "smaller sweep for smoke runs")
		workers   = flag.Int("workers", 1, "local mode: worker pool size (ignored with -agents)")
		agents    = flag.String("agents", "", "fabric mode: comma-separated lingerd agent addresses")
		ckptDir   = flag.String("checkpoint", "", "checkpoint `dir`: persist completed points and resume from it")
		faultSpec = flag.String("fault", "", "fault injection spec for fabric calls, e.g. drop=0.05,seed=42")
		outPath   = flag.String("out", "", "write the report to `file` instead of stdout")
	)
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("llsweep")
	}
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if *scenPath == "" {
		return cli.Usagef("-scenario is required")
	}
	if err := o.Start(); err != nil {
		return err
	}
	defer o.Finish(&err)
	rec := o.Recorder()

	sc, err := cli.LoadScenario(flag.CommandLine, *scenPath, *seed, *quick, rec)
	if err != nil {
		return err
	}
	id, specs := sc.ID, sc.Points

	var store exp.Store
	if *ckptDir != "" {
		// The spec digest makes a checkpoint resumable only by the spec
		// that wrote it, not by any spec sharing its name and seed.
		digest, err := sc.Spec.Digest()
		if err != nil {
			return err
		}
		run, err := checkpoint.OpenOrCreate(*ckptDir, checkpoint.Meta{
			Schema: checkpoint.SchemaVersion,
			Seed:   sc.Spec.Seed,
			Config: fmt.Sprintf("quick=%t,spec=%s", *quick, digest),
			Sweep:  id,
		})
		if err != nil {
			return err
		}
		if rec != nil {
			run.SetRecorder(rec)
		}
		store = run
	}

	var (
		results [][]byte
		stats   fabric.Stats
	)
	if *agents == "" {
		if *faultSpec != "" {
			return cli.Usagef("-fault requires -agents (the injector sits on the fabric transport)")
		}
		results, stats, err = fabric.RunLocal(fabric.BuiltinTasks(), store, *workers, id, specs, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llsweep: %s: %d points local (workers=%d, computed=%d, restored=%d)\n",
			id, len(specs), *workers, stats.Completed, stats.Restored)
	} else {
		var addrs []string
		for _, a := range strings.Split(*agents, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		var injector runtime.FaultInjector
		if *faultSpec != "" {
			fcfg, err := runtime.ParseFaultSpec(*faultSpec)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			inj, err := runtime.NewSeededInjector(fcfg)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			injector = inj
		}
		cfg := fabric.Config{
			Agents:   addrs,
			Link:     *link,
			Injector: injector,
			Store:    store,
			Rec:      rec,
		}
		results, stats, err = fabric.Run(cfg, id, specs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llsweep: %s: %d points across %d agents (completed=%d, restored=%d, requeued=%d, suspected=%d, dead=%d, resurrected=%d, retries=%d)\n",
			id, len(specs), len(addrs), stats.Completed, stats.Restored, stats.Requeued,
			stats.Suspected, stats.Dead, stats.Resurrected, stats.Transport.Retries)
	}

	report, err := fabric.EncodeReport(id, sc.Spec.Seed, *quick, results)
	if err != nil {
		return err
	}
	if *outPath != "" {
		return os.WriteFile(*outPath, report, 0o644)
	}
	_, err = os.Stdout.Write(report)
	return err
}
