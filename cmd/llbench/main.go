// Command llbench runs the repository's node benchmark and regression
// gate, and emits a schema-validated BENCH_<n>.json snapshot — one point
// of the benchmark trajectory documented in BENCHMARKS.md.
//
// The end-to-end benchmark is perfbench: its workloads run the §4.2
// cluster tournament and the llserve ring from spec to report. llbench
// is the node gate beside it. Its one suite is the fine-grain burst-loop
// microbenchmark of §4.1 (one workstation serving an unbounded foreign
// job at 50% local utilization, Figure 5's inner loop), run on the
// batched fast path and on the retained per-burst reference
// (node.RefNode), so the snapshot carries its own like-for-like speedup
// and allocs/op.
//
// Usage:
//
//	llbench [-dir .] [-id 0] [-o FILE] [-notes S]
//	llbench -gate [-dir .] [-baseline FILE]
//	llbench -validate FILE
//	llbench -table FILE
//
// -gate compares the fresh node metrics against the latest committed
// snapshot (or -baseline): ns per simulated second and allocs/op may not
// grow, and the speedup over the reference may not drop, by more than
// bench.GateTolerance. Exit codes: 0 on success, 1 on runtime failure
// or a gate violation, 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"lingerlonger/internal/bench"
	"lingerlonger/internal/cli"
	"lingerlonger/internal/node"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

func main() {
	cli.Run("llbench", realMain)
}

func realMain() error {
	cli.RegisterVersionFlag()
	var (
		dir      = flag.String("dir", ".", "snapshot directory (BENCH_<n>.json trajectory)")
		id       = flag.Int("id", 0, "snapshot id; 0 = one past the latest in -dir")
		out      = flag.String("o", "", "write the snapshot to this file (default: stdout only)")
		notes    = flag.String("notes", "", "free-form note recorded in the snapshot")
		gate     = flag.Bool("gate", false, "compare against the baseline and exit 1 on regression")
		baseline = flag.String("baseline", "", "gate baseline file (default: latest snapshot in -dir)")
		validate = flag.String("validate", "", "validate this snapshot file and exit")
		table    = flag.String("table", "", "print the README results table for this snapshot file and exit")
	)
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("llbench")
	}
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if *validate != "" {
		if _, err := bench.Load(*validate); err != nil {
			return err
		}
		fmt.Printf("%s: valid (schema %d)\n", *validate, bench.SchemaVersion)
		return nil
	}
	if *table != "" {
		s, err := bench.Load(*table)
		if err != nil {
			return err
		}
		fmt.Print(s.Markdown())
		return nil
	}

	snapID := *id
	if snapID == 0 {
		next, err := bench.NextID(*dir)
		if err != nil {
			return err
		}
		snapID = next
	}

	fmt.Fprintf(os.Stderr, "llbench: node suite...\n")
	snap := &bench.Snapshot{
		SchemaVersion: bench.SchemaVersion,
		ID:            snapID,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Notes:         *notes,
		Node:          nodeSuite(),
	}
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("llbench: produced an invalid snapshot: %w", err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if *out != "" {
		if err := snap.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llbench: wrote %s\n", *out)
	}

	if *gate {
		base, path, err := loadBaseline(*baseline, *dir)
		if err != nil {
			return err
		}
		if bad := bench.Compare(base, snap); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintf(os.Stderr, "llbench: GATE: %s\n", v)
			}
			return fmt.Errorf("llbench: %d regression(s) vs %s", len(bad), path)
		}
		fmt.Fprintf(os.Stderr, "llbench: gate passed vs %s\n", path)
	}
	return nil
}

// loadBaseline resolves the gate baseline: an explicit file, or the latest
// committed snapshot in dir.
func loadBaseline(file, dir string) (*bench.Snapshot, string, error) {
	if file != "" {
		s, err := bench.Load(file)
		return s, file, err
	}
	s, path, err := bench.Latest(dir)
	if errors.Is(err, bench.ErrNoSnapshots) {
		return nil, "", fmt.Errorf("llbench: -gate needs a baseline: no BENCH_<n>.json in %s and no -baseline", dir)
	}
	return s, path, err
}

// The node suite times the two paths in nodePairs interleaved pairs of
// nodeOps operations each. On a shared host, two long back-to-back runs
// see different load, which alone can move ns/sim-s and the same-process
// ratio past the gate's tolerance. Many short pairs see the same load on
// both paths, and their median does not follow a burst that slows a few
// of them. nodePairs is odd, so each median is one measured pair.
const (
	nodePairs = 21
	nodeOps   = 4000 // about 0.1 s per path per pair
)

// nodeSuite runs the fine-grain burst-loop microbenchmark: one node
// serving an unbounded foreign job for a fixed simulated span per
// operation at 50% local utilization (the middle of the Figure 5 sweep),
// on the batched fast path (Node with stream lookahead) and on the
// retained per-burst reference (RefNode). Both consume statistically
// identical burst streams, so the speedup is like-for-like; the
// differential suite in internal/node separately proves the two paths
// bit-identical on the same stream.
//
// Each pair times nodeOps operations of each path, alternating which runs
// first; both nodes carry on through their streams from pair to pair.
// The suite records the median fast and reference ns/sim-s, the median
// of the per-pair speedups and the fast path's allocs/op, and reports
// each metric's range over the pairs on stderr.
func nodeSuite() *bench.NodeSuite {
	const span = 50.0 // simulated seconds per op
	table := workload.DefaultTable()
	fast := node.New(node.Config{ContextSwitch: node.DefaultContextSwitch, BurstLookahead: 256},
		table, workload.ConstantUtilization(0.5), stats.NewRNG(1))
	ref := node.NewRef(node.DefaultConfig(),
		table, workload.ConstantUtilization(0.5), stats.NewRNG(1))
	var fastUntil, refUntil float64
	fastOp := func() { fastUntil += span; fast.ServeForeign(math.Inf(1), fastUntil) }
	refOp := func() { refUntil += span; ref.ServeForeign(math.Inf(1), refUntil) }
	nsPerSimSec := func(op func()) float64 {
		runtime.GC()
		start := time.Now()
		for range nodeOps {
			op()
		}
		return float64(time.Since(start).Nanoseconds()) / (nodeOps * span)
	}

	allocs := testing.AllocsPerRun(nodeOps/10, fastOp)
	var fastNs, refNs, speedup [nodePairs]float64
	for i := range nodePairs {
		if i%2 == 0 {
			fastNs[i] = nsPerSimSec(fastOp)
			refNs[i] = nsPerSimSec(refOp)
		} else {
			refNs[i] = nsPerSimSec(refOp)
			fastNs[i] = nsPerSimSec(fastOp)
		}
		speedup[i] = refNs[i] / fastNs[i]
	}
	ns, nsLo, nsHi := spread(fastNs[:])
	refMed, refLo, refHi := spread(refNs[:])
	sp, spLo, spHi := spread(speedup[:])
	fmt.Fprintf(os.Stderr, "llbench: node suite, median (range) of %d pairs: ns/sim-s %.0f (%.0f-%.0f), ref %.0f (%.0f-%.0f), speedup %.3f (%.3f-%.3f)\n",
		nodePairs, ns, nsLo, nsHi, refMed, refLo, refHi, sp, spLo, spHi)
	return &bench.NodeSuite{
		SimSecondsPerOp:  span,
		NsPerSimSecond:   ns,
		SimSecPerWallSec: 1e9 / ns,
		AllocsPerOp:      allocs,
		RefNsPerSimSec:   refMed,
		SpeedupVsRef:     sp,
	}
}

// spread returns the median, minimum and maximum of an odd-length sample.
func spread(x []float64) (med, lo, hi float64) {
	s := slices.Clone(x)
	slices.Sort(s)
	return s[len(s)/2], s[0], s[len(s)-1]
}
