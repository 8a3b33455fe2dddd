// Command llbench runs the repository's fixed benchmark suite and emits a
// schema-validated BENCH_<n>.json snapshot — one point of the benchmark
// trajectory documented in BENCHMARKS.md.
//
// The suite has three parts, chosen to cover the three layers a
// performance PR can touch:
//
//   - node: the fine-grain burst-loop microbenchmark (one workstation
//     serving an unbounded foreign job at 50% local utilization), run on
//     the batched fast path and on the retained per-burst reference, so
//     the snapshot carries its own like-for-like speedup and allocs/op.
//   - cluster: a Figure 7-style batch run (Workload 1, Linger-Longer) on a
//     seeded trace corpus, reporting mean/P95 job completion latency in
//     simulated seconds plus wall-clock.
//   - serve: an in-process llserve instance replaying the same seeded
//     request mix twice — cold (simulate and fill the cache) then warm
//     (cache hits) — reporting req/s and latency per phase plus a result
//     digest that must match across phases (the cached == fresh contract).
//
// Usage:
//
//	llbench [-quick] [-seed 1] [-dir .] [-id 0] [-o FILE] [-notes S]
//	llbench -gate [-quick] [-dir .] [-baseline FILE]
//	llbench -validate FILE
//	llbench -table FILE
//
// -quick shrinks the cluster and serve suites for CI; the node
// microbenchmark is identical in both modes, which is why the CI gate
// (-gate) compares only node metrics: ns per simulated second and
// allocs/op may not grow, and the speedup over the reference may not
// drop, by more than bench.GateTolerance against the latest committed
// snapshot (or -baseline). Exit codes: 0 on success, 1 on runtime failure
// or a gate violation, 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lingerlonger/internal/bench"
	"lingerlonger/internal/cli"
	"lingerlonger/internal/cluster"
	"lingerlonger/internal/core"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/node"
	"lingerlonger/internal/serve"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
	"lingerlonger/internal/workload"
)

func main() {
	cli.Run("llbench", realMain)
}

func realMain() error {
	cli.RegisterVersionFlag()
	var (
		quick    = flag.Bool("quick", false, "smaller cluster/serve suites (node suite unchanged)")
		seed     = flag.Int64("seed", 1, "master seed for the cluster corpus and serve request stream")
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

	snap := &bench.Snapshot{
		SchemaVersion: bench.SchemaVersion,
		ID:            snapID,
		Seed:          *seed,
		Quick:         *quick,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Notes:         *notes,
	}

	fmt.Fprintf(os.Stderr, "llbench: node suite...\n")
	snap.Node = nodeSuite()
	fmt.Fprintf(os.Stderr, "llbench: cluster suite...\n")
	cl, err := clusterSuite(*seed, *quick)
	if err != nil {
		return err
	}
	snap.Cluster = cl
	fmt.Fprintf(os.Stderr, "llbench: serve suite...\n")
	sv, err := serveSuite(*seed, *quick)
	if err != nil {
		return err
	}
	snap.Serve = sv

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

// nodeSuite runs the fine-grain burst-loop microbenchmark: one node
// serving an unbounded foreign job for a fixed simulated span per
// iteration at 50% local utilization (the middle of the Figure 5 sweep),
// on the batched fast path (Node with stream lookahead) and on the
// retained per-burst reference (RefNode). Both consume statistically
// identical burst streams, so the speedup is like-for-like; the
// differential suite in internal/node separately proves the two paths
// bit-identical on the same stream.
func nodeSuite() *bench.NodeSuite {
	const span = 50.0 // simulated seconds per op
	table := workload.DefaultTable()
	fast := testing.Benchmark(func(b *testing.B) {
		n := node.New(node.Config{ContextSwitch: node.DefaultContextSwitch, BurstLookahead: 256},
			table, workload.ConstantUtilization(0.5), stats.NewRNG(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.ServeForeign(math.Inf(1), float64(i+1)*span)
		}
	})
	ref := testing.Benchmark(func(b *testing.B) {
		n := node.NewRef(node.DefaultConfig(),
			table, workload.ConstantUtilization(0.5), stats.NewRNG(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.ServeForeign(math.Inf(1), float64(i+1)*span)
		}
	})
	ns := float64(fast.NsPerOp()) / span
	refNs := float64(ref.NsPerOp()) / span
	return &bench.NodeSuite{
		SimSecondsPerOp:  span,
		NsPerSimSecond:   ns,
		SimSecPerWallSec: 1e9 / ns,
		AllocsPerOp:      float64(fast.AllocsPerOp()),
		RefNsPerSimSec:   refNs,
		SpeedupVsRef:     refNs / ns,
	}
}

// clusterSuite runs the Figure 7-style batch workload: full mode is the
// paper's Workload 1 (64 nodes, 128 x 600 CPU-s jobs) on a 16-machine,
// 7-day corpus; -quick shrinks the corpus and job family so the suite
// finishes in well under a second.
func clusterSuite(seed int64, quick bool) (bench.ClusterSuite, error) {
	machines, days := 16, 7
	cfg := cluster.Workload1(core.LingerLonger)
	if quick {
		machines, days = 6, 2
		cfg.Nodes = 16
		cfg.NumJobs = 32
		cfg.JobCPU = 120
	}
	cfg.Seed = seed
	tcfg := trace.DefaultConfig()
	tcfg.Days = days
	corpus, err := trace.GenerateCorpus(tcfg, machines, stats.NewRNG(seed))
	if err != nil {
		return bench.ClusterSuite{}, err
	}

	start := time.Now()
	res, err := cluster.Run(cfg, corpus)
	if err != nil {
		return bench.ClusterSuite{}, err
	}
	wall := time.Since(start).Seconds()
	if res.Incomplete > 0 {
		return bench.ClusterSuite{}, fmt.Errorf("llbench: cluster run left %d jobs incomplete", res.Incomplete)
	}

	// Completion latency distribution: jobs are all submitted at t=0, so a
	// job's completion instant IS its latency in simulated seconds.
	lats := make([]float64, 0, len(res.Jobs))
	for _, j := range res.Jobs {
		lats = append(lats, j.CompletedAt())
	}
	mean := 0.0
	for _, l := range lats {
		mean += l
	}
	mean /= float64(len(lats))
	p95 := stats.Quantile(lats, 0.95)

	return bench.ClusterSuite{
		Nodes:           cfg.Nodes,
		Jobs:            len(res.Jobs),
		Policy:          cfg.Policy.String(),
		MeanCompletionS: mean,
		P95CompletionS:  p95,
		LocalDelay:      res.LocalDelay,
		WallSeconds:     wall,
		JobsPerSec:      float64(len(res.Jobs)) / wall,
	}, nil
}

// serveReq is one request of the seeded stream: a pure function of
// (seed, i), mirroring cmd/llload's generator so the two tools exercise
// the service identically.
type serveReq struct {
	path string
	body []byte
}

// genStream derives the n-request mix: equal weights over decide, node and
// cluster endpoints, 8 distinct parameter variants each (cache-friendly,
// so the warm phase is all hits).
func genStream(seed int64, n int) []serveReq {
	const distinct = 8
	out := make([]serveReq, n)
	for i := range out {
		rng := stats.NewRNG(exp.DeriveSeed(seed, i))
		endpoint := []string{serve.EndpointDecide, serve.EndpointNode, serve.EndpointCluster}[rng.Intn(3)]
		v := rng.Intn(distinct)
		var req any
		path := "/v1/simulate/" + endpoint
		switch endpoint {
		case serve.EndpointDecide:
			path = "/v1/decide/linger"
			req = &serve.DecideRequest{
				SourceUtil: 0.5 + 0.04*float64(v%10),
				DestUtil:   0.05 * float64(v%8),
				JobMB:      8,
				EpisodeAge: float64(5 * (v + 1)),
			}
		case serve.EndpointNode:
			req = &serve.NodeRequest{
				Utilization: 0.05 * float64(v%12),
				Duration:    200,
				Seed:        int64(v + 1),
			}
		case serve.EndpointCluster:
			req = &serve.ClusterRequest{
				Policy:        []string{"LL", "LF", "IE", "PM"}[v%4],
				Nodes:         8,
				NumJobs:       8,
				JobCPU:        60,
				TraceMachines: 2,
				TraceDays:     1,
				Seed:          int64(v/4 + 1),
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(fmt.Sprintf("llbench: marshal request: %v", err))
		}
		out[i] = serveReq{path: path, body: body}
	}
	return out
}

// serveSuite replays the seeded request stream twice against one
// in-process llserve: cold fills the cache, warm hits it. The per-phase
// digest is llload's: sha256 over (index, status, body-hash) in index
// order, so matching digests mean byte-identical responses.
func serveSuite(seed int64, quick bool) (bench.ServeSuite, error) {
	requests, concurrency := 400, 4
	if quick {
		requests = 120
	}
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		return bench.ServeSuite{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	stream := genStream(seed, requests)
	cold, err := replay(ts.URL, ts.Client(), stream, concurrency)
	if err != nil {
		return bench.ServeSuite{}, err
	}
	warm, err := replay(ts.URL, ts.Client(), stream, concurrency)
	if err != nil {
		return bench.ServeSuite{}, err
	}
	return bench.ServeSuite{
		Requests:     requests,
		Concurrency:  concurrency,
		Mix:          "decide=1,node=1,cluster=1",
		Cold:         cold,
		Warm:         warm,
		DigestsMatch: cold.Digest == warm.Digest,
	}, nil
}

// replay issues the stream once with a closed-loop worker pool and
// summarizes the phase.
func replay(base string, client *http.Client, stream []serveReq, concurrency int) (bench.ServePhase, error) {
	type outcome struct {
		status   int
		bodyHash [32]byte
		latency  float64
		err      bool
	}
	outcomes := make([]outcome, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := &bytes.Buffer{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(base+stream[i].path, "application/json", bytes.NewReader(stream[i].body))
				if err != nil {
					outcomes[i] = outcome{err: true, latency: time.Since(t0).Seconds()}
					continue
				}
				buf.Reset()
				_, rerr := buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					outcomes[i] = outcome{err: true, status: resp.StatusCode, latency: time.Since(t0).Seconds()}
					continue
				}
				outcomes[i] = outcome{
					status:   resp.StatusCode,
					bodyHash: sha256.Sum256(buf.Bytes()),
					latency:  time.Since(t0).Seconds(),
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	dig := sha256.New()
	var idx [8]byte
	var phase bench.ServePhase
	lats := make([]float64, 0, len(stream))
	for i, o := range outcomes {
		binary.BigEndian.PutUint64(idx[:], uint64(i))
		dig.Write(idx[:])
		if o.err {
			phase.Errors++
			dig.Write([]byte("transport-error"))
		} else {
			binary.BigEndian.PutUint64(idx[:], uint64(o.status))
			dig.Write(idx[:])
			dig.Write(o.bodyHash[:])
			if o.status != http.StatusOK {
				phase.Errors++
			}
		}
		lats = append(lats, o.latency)
	}
	phase.Digest = "sha256:" + hex.EncodeToString(dig.Sum(nil))
	mean := 0.0
	for _, l := range lats {
		mean += l
	}
	phase.MeanLatencyS = mean / float64(len(lats))
	phase.P95LatencyS = stats.Quantile(lats, 0.95)
	if wall > 0 {
		phase.ReqPerSec = float64(len(stream)) / wall
	}
	return phase, nil
}
