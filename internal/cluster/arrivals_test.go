package cluster

import (
	"testing"

	"lingerlonger/internal/core"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
)

func arrivalsConfig(p core.Policy, rate float64) ArrivalsConfig {
	cfg := DefaultConfig()
	cfg.Policy = p
	cfg.Nodes = 16
	cfg.JobCPU = 120
	return ArrivalsConfig{Cluster: cfg, Rate: rate, Duration: 1200}
}

func TestRunArrivalsBasics(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 20)
	res, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.05), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if res.Incomplete != 0 {
		t.Errorf("%d incomplete jobs in an underloaded system", res.Incomplete)
	}
	if res.Completed != res.Arrived {
		t.Errorf("completed %d of %d arrived", res.Completed, res.Arrived)
	}
	// Underloaded: response ~ service time, little queueing.
	if res.MeanResponse < 120 {
		t.Errorf("mean response %g below service demand", res.MeanResponse)
	}
	if res.MeanQueued < 0 {
		t.Errorf("negative queue time %g", res.MeanQueued)
	}
	if res.P95Response < res.MeanResponse {
		t.Errorf("P95 (%g) below mean (%g)", res.P95Response, res.MeanResponse)
	}
	// Expected arrivals: rate * duration = 60; Poisson spread.
	if res.Arrived < 30 || res.Arrived > 100 {
		t.Errorf("arrived %d jobs, want ~60", res.Arrived)
	}
}

func TestRunArrivalsLoadIncreasesResponse(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 21)
	low, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.02), corpus)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.12), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if high.OfferedLoad <= low.OfferedLoad {
		t.Fatal("offered load not increasing")
	}
	if high.MeanResponse < low.MeanResponse*0.95 {
		t.Errorf("response did not grow with load: low=%g high=%g",
			low.MeanResponse, high.MeanResponse)
	}
}

// The headline carries over to the open system: under load, lingering
// yields lower response times than eviction.
func TestRunArrivalsLingerBeatsEviction(t *testing.T) {
	corpus := testCorpus(t, 6, 1, 22)
	ll, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.10), corpus)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := RunArrivals(arrivalsConfig(core.ImmediateEviction, 0.10), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if ll.MeanResponse >= ie.MeanResponse {
		t.Errorf("LL response %g not below IE %g under load", ll.MeanResponse, ie.MeanResponse)
	}
}

func TestRunArrivalsRejectsBadConfig(t *testing.T) {
	corpus := testCorpus(t, 2, 1, 23)
	bad := arrivalsConfig(core.LingerLonger, 0)
	if _, err := RunArrivals(bad, corpus); err == nil {
		t.Error("zero rate accepted")
	}
	bad = arrivalsConfig(core.LingerLonger, 1)
	bad.Duration = 0
	if _, err := RunArrivals(bad, corpus); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunArrivalsDeterministic(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 24)
	a, err := RunArrivals(arrivalsConfig(core.PauseAndMigrate, 0.06), corpus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunArrivals(arrivalsConfig(core.PauseAndMigrate, 0.06), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrived != b.Arrived || a.MeanResponse != b.MeanResponse {
		t.Error("same seed produced different arrival runs")
	}
}

// Queue times must be non-negative for every job: a job can never be
// placed before it arrived (regression test for the arrival/boundary
// ordering).
func TestRunArrivalsNoTimeTravel(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 25)
	cfg := arrivalsConfig(core.LingerLonger, 0.15)
	ccfg := cfg.Cluster
	s, err := newSimulation(ccfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	res, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanQueued < 0 {
		t.Errorf("negative mean queue time %g", res.MeanQueued)
	}
}

// The open-system run is pinned value for value: a change to the arrival
// loop that keeps it deterministic but moves an arrival instant, reorders
// an RNG draw or drops an arrival shows up here, where
// TestRunArrivalsDeterministic (run vs run) would still pass.
func TestRunArrivalsGolden(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 20)
	cases := []struct {
		policy core.Policy
		want   ArrivalsResult
	}{
		{core.LingerLonger, ArrivalsResult{
			Arrived: 54, Completed: 54, Incomplete: 0,
			MeanResponse: 122.61551331284116, P95Response: 123.33444337826705,
			MeanQueued: 1.2190273688884121, OfferedLoad: 0.375,
			LocalDelay: 0.0010436992416886694, Migrations: 0,
		}},
		{core.ImmediateEviction, ArrivalsResult{
			Arrived: 54, Completed: 54, Incomplete: 0,
			MeanResponse: 122.89852370010615, P95Response: 123.2830510438486,
			MeanQueued: 1.2190273688884121, OfferedLoad: 0.375,
			LocalDelay: 0.0009660664403845686, Migrations: 1,
		}},
	}
	for _, c := range cases {
		cfg := arrivalsConfig(c.policy, 0.05)
		reg := obs.NewRegistry()
		cfg.Cluster.Rec = obs.New(reg, nil)
		res, err := RunArrivals(cfg, corpus)
		if err != nil {
			t.Fatalf("%v: %v", c.policy, err)
		}
		if *res != c.want {
			t.Errorf("%v:\n got %#v\nwant %#v", c.policy, *res, c.want)
		}
		if got := reg.Counter(obs.SimEventsFired).Value(); got != int64(c.want.Arrived) {
			t.Errorf("%v: %s = %d, want one per arrival (%d)", c.policy, obs.SimEventsFired, got, c.want.Arrived)
		}
	}
}

// Arrivals draw their CPU demand from Cluster.JobSizes when it is set, as
// the batch runs do: with every draw in [300, 400] s against a JobCPU of
// 120 s, no job can complete in under 300 s.
func TestRunArrivalsHonoursJobSizes(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 20)
	cfg := arrivalsConfig(core.LingerLonger, 0.02)
	fixed, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster.JobSizes = stats.Uniform{Lo: 300, Hi: 400}
	sized, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if sized.Completed == 0 || sized.Incomplete != 0 {
		t.Fatalf("sized run completed %d, left %d incomplete", sized.Completed, sized.Incomplete)
	}
	if fixed.MeanResponse > 200 {
		t.Errorf("fixed-size mean response %g, want near the 120 s JobCPU", fixed.MeanResponse)
	}
	if sized.MeanResponse < 300 {
		t.Errorf("sized mean response %g below the smallest drawn demand: JobSizes ignored", sized.MeanResponse)
	}
}

// The offered load is the demand per node that JobSizes actually draws:
// its mean, not the fixed JobCPU it overrides.
func TestRunArrivalsOfferedLoadUsesJobSizes(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 20)
	cfg := arrivalsConfig(core.LingerLonger, 0.02)
	cfg.Cluster.JobSizes = stats.Uniform{Lo: 300, Hi: 400}
	res, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.02 * 350 / 16.0; res.OfferedLoad != want {
		t.Errorf("offered load %g, want rate x mean size / nodes = %g (not the JobCPU-based 0.15)", res.OfferedLoad, want)
	}
}
