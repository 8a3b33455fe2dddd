// Command tracegen generates and analyzes the synthetic workstation
// traces (the §3 workload characterization): the corpus statistics, the
// Figure 2 burst CDFs, the Figure 3 workload parameters, and the Figure 4
// available-memory CDF. It can also export a generated corpus to the
// lltrace text format and analyze a previously exported corpus.
//
// Usage:
//
//	tracegen [-machines 8] [-days 7] [-seed 1] [-stats] [-fig2] [-fig3] [-fig4]
//	tracegen -export DIR          write the corpus as DIR/machine-NNN.trace
//	tracegen -load DIR -stats     analyze traces read back from DIR
//
// With no figure flag it prints the corpus statistics. The shared
// observability flags (-metrics, -events, -cpuprofile, -memprofile) are
// accepted too; trace generation runs no simulator, so the profiles are
// the useful ones here. Exit codes: 0 on success, 1 on runtime failure,
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lingerlonger/internal/cli"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

func main() {
	cli.Run("tracegen", realMain)
}

func realMain() (err error) {
	var o cli.Obs
	o.RegisterFlags()
	var (
		machines  = flag.Int("machines", 8, "number of machines in the corpus")
		days      = flag.Int("days", 7, "trace length, days")
		seed      = flag.Int64("seed", 1, "generator seed")
		showStats = flag.Bool("stats", false, "print §3.2 corpus statistics")
		fig2      = flag.Bool("fig2", false, "print the Figure 2 burst CDFs")
		fig3      = flag.Bool("fig3", false, "print the Figure 3 workload parameters")
		fig4      = flag.Bool("fig4", false, "print the Figure 4 memory CDF")
		export    = flag.String("export", "", "write the generated corpus to `dir` in lltrace text format")
		load      = flag.String("load", "", "analyze traces loaded from `dir` instead of generating them")
	)
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("tracegen")
	}
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if *export != "" && *load != "" {
		return cli.Usagef("-export and -load are mutually exclusive")
	}
	if !*fig2 && !*fig3 && !*fig4 && *export == "" {
		*showStats = true
	}
	if err := o.Start(); err != nil {
		return err
	}
	defer o.Finish(&err)

	table := workload.DefaultTable()

	// The corpus is generated lazily (once) since not every mode needs it.
	var corpus []*trace.Trace
	getCorpus := func() ([]*trace.Trace, error) {
		if corpus != nil {
			return corpus, nil
		}
		var err error
		if *load != "" {
			corpus, err = loadCorpus(*load)
		} else {
			cfg := trace.DefaultConfig()
			cfg.Days = *days
			corpus, err = trace.GenerateCorpus(cfg, *machines, stats.NewRNG(*seed))
		}
		return corpus, err
	}

	if *export != "" {
		c, err := getCorpus()
		if err != nil {
			return err
		}
		if err := exportCorpus(*export, c); err != nil {
			return err
		}
		fmt.Printf("wrote %d traces to %s\n", len(c), *export)
	}

	if *showStats {
		c, err := getCorpus()
		if err != nil {
			return err
		}
		cs := trace.Analyze(c)
		corpusDays := *days
		if *load != "" && len(c) > 0 {
			// Report the loaded corpus's actual length, not the -days flag.
			corpusDays = int(c[0].Duration() / 86400)
		}
		fmt.Printf("corpus: %d machines x %d days (%d samples)\n", cs.Machines, corpusDays, cs.Samples)
		fmt.Printf("  non-idle fraction        %.3f   (paper §3.2: 0.46)\n", cs.NonIdleFraction)
		fmt.Printf("  mean CPU (all)           %.3f\n", cs.MeanCPU)
		fmt.Printf("  mean CPU (idle)          %.3f\n", cs.MeanCPUIdle)
		fmt.Printf("  mean CPU (non-idle)      %.3f\n", cs.MeanCPUNonIdle)
		fmt.Printf("  non-idle below 10%% CPU   %.3f   (paper §3.2: 0.76)\n", cs.FracNonIdleBelow10)
		fmt.Printf("  mean idle episode        %.0f s\n", cs.MeanIdleEpisode)
		fmt.Printf("  mean non-idle episode    %.0f s\n", cs.MeanNonIdleEpisode)
	}

	if *fig2 {
		series := workload.Fig2(table, []float64{0.10, 0.50}, 50000, stats.NewRNG(*seed))
		fmt.Println("\nFigure 2 — run/idle burst CDFs vs hyperexponential fit")
		for _, s := range series {
			kind := "idle"
			if s.Run {
				kind = "run"
			}
			fmt.Printf("  %s bursts at %.0f%% utilization (KS distance %.4f)\n",
				kind, 100*s.Utilization, s.KSDistance)
			for i, p := range s.Points {
				if i%10 == 0 { // every 20 ms along the 0..0.1 s axis
					fmt.Printf("    t=%5.3fs empirical=%.3f fitted=%.3f\n", p.Time, p.Empirical, p.Fitted)
				}
			}
		}
	}

	if *fig3 {
		fmt.Println("\nFigure 3 — workload parameters by utilization")
		fmt.Printf("%8s %12s %12s %12s %12s\n", "util", "run mean", "run var", "idle mean", "idle var")
		for _, r := range workload.Fig3(table) {
			fmt.Printf("%7.0f%% %12.4f %12.6f %12.4f %12.6f\n",
				100*r.Utilization, r.RunMean, r.RunVar, r.IdleMean, r.IdleVar)
		}
	}

	if *fig4 {
		c, err := getCorpus()
		if err != nil {
			return err
		}
		all, idle, nonIdle := trace.Fig4(c)
		fmt.Println("\nFigure 4 — available memory CDF (64 MB machines)")
		fmt.Printf("%8s %10s %10s %10s\n", "MB", "all", "idle", "non-idle")
		for mb := 0.0; mb <= 64; mb += 4 {
			fmt.Printf("%8.0f %10.3f %10.3f %10.3f\n", mb, all.At(mb), idle.At(mb), nonIdle.At(mb))
		}
		fmt.Printf("\n  P(free >= 14 MB) = %.3f (paper: 0.90)\n", trace.FracAtLeast(all, 14))
		fmt.Printf("  P(free >= 10 MB) = %.3f (paper: 0.95)\n", trace.FracAtLeast(all, 10))
	}
	return nil
}

// exportCorpus writes one lltrace file per machine into dir.
func exportCorpus(dir string, corpus []*trace.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tracegen: %w", err)
	}
	for i, tr := range corpus {
		path := filepath.Join(dir, fmt.Sprintf("machine-%03d.trace", i))
		if err := trace.Save(path, tr); err != nil {
			return err
		}
	}
	return nil
}

// loadCorpus reads every *.trace file in dir, in sorted name order so the
// machine numbering is stable.
func loadCorpus(dir string) ([]*trace.Trace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracegen: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".trace") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("tracegen: no .trace files in %s", dir)
	}
	sort.Strings(names)
	corpus := make([]*trace.Trace, 0, len(names))
	for _, name := range names {
		tr, err := trace.Load(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, tr)
	}
	return corpus, nil
}
