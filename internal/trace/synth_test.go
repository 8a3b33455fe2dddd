package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"lingerlonger/internal/stats"
)

// testCorpus generates a small but statistically meaningful corpus.
func testCorpus(t *testing.T, machines, days int, seed int64) []*Trace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Days = days
	traces, err := GenerateCorpus(cfg, machines, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestGenerateValidates(t *testing.T) {
	for _, tr := range testCorpus(t, 3, 1, 1) {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Duration() != 86400 {
			t.Errorf("trace duration = %g, want 86400", tr.Duration())
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 0
	if _, err := Generate(cfg, stats.NewRNG(1)); err == nil {
		t.Error("Days=0 accepted")
	}
	cfg = DefaultConfig()
	cfg.OSMB = cfg.TotalMB + 1
	if _, err := Generate(cfg, stats.NewRNG(1)); err == nil {
		t.Error("OSMB > TotalMB accepted")
	}
	cfg = DefaultConfig()
	cfg.ComputeProb = 1.5
	if _, err := Generate(cfg, stats.NewRNG(1)); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := GenerateCorpus(DefaultConfig(), 0, stats.NewRNG(1)); err == nil {
		t.Error("zero machines accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Generate(cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.Sample(i) != b.Sample(i) {
			t.Fatalf("sample %d differs between equal-seed runs", i)
		}
	}
}

// The §3.2 calibration targets. The paper: 46% non-idle; 76% of non-idle
// time below 10% CPU. Week-long corpus over several machines.
func TestCorpusMatchesPaperStats(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical calibration test")
	}
	traces := testCorpus(t, 6, 7, 2)
	cs := Analyze(traces)
	if cs.NonIdleFraction < 0.38 || cs.NonIdleFraction > 0.54 {
		t.Errorf("non-idle fraction = %.3f, want ~0.46 (paper §3.2)", cs.NonIdleFraction)
	}
	if cs.FracNonIdleBelow10 < 0.66 || cs.FracNonIdleBelow10 > 0.86 {
		t.Errorf("frac non-idle below 10%% CPU = %.3f, want ~0.76", cs.FracNonIdleBelow10)
	}
	if cs.MeanCPU < 0.04 || cs.MeanCPU > 0.14 {
		t.Errorf("overall mean CPU = %.3f, want ~0.08", cs.MeanCPU)
	}
	if cs.MeanCPUNonIdle <= cs.MeanCPUIdle {
		t.Errorf("non-idle mean CPU (%.3f) should exceed idle mean CPU (%.3f)",
			cs.MeanCPUNonIdle, cs.MeanCPUIdle)
	}
	if cs.MeanIdleEpisode <= 60 {
		t.Errorf("mean idle episode = %.1f s, should exceed the recruitment delay", cs.MeanIdleEpisode)
	}
}

// Figure 4 calibration: on 64 MB machines, >= 14 MB free 90% of the time
// and >= 10 MB free 95% of the time; idle and non-idle distributions do not
// differ much.
func TestCorpusMatchesFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical calibration test")
	}
	traces := testCorpus(t, 6, 7, 3)
	all, idle, nonIdle := Fig4(traces)
	if got := FracAtLeast(all, 14); got < 0.84 || got > 0.96 {
		t.Errorf("P(free >= 14MB) = %.3f, want ~0.90 (Figure 4)", got)
	}
	if got := FracAtLeast(all, 10); got < 0.90 || got > 0.99 {
		t.Errorf("P(free >= 10MB) = %.3f, want ~0.95 (Figure 4)", got)
	}
	// "no significant difference in the available memory between idle and
	// non-idle states": medians within a few MB.
	dm := idle.Quantile(0.5) - nonIdle.Quantile(0.5)
	if dm < -8 || dm > 8 {
		t.Errorf("idle/non-idle median free memory differ by %.1f MB", dm)
	}
}

func TestPresenceSchedule(t *testing.T) {
	cfg := DefaultConfig()
	// Monday 10:00 — working hours.
	if got := cfg.presenceAt(10 * 3600); got != cfg.PresenceWeekday {
		t.Errorf("weekday presence = %g", got)
	}
	// Monday 22:00 — evening.
	if got := cfg.presenceAt(22 * 3600); got != cfg.PresenceEvening {
		t.Errorf("evening presence = %g", got)
	}
	// Monday 3:00 — night.
	if got := cfg.presenceAt(3 * 3600); got != cfg.PresenceNight {
		t.Errorf("night presence = %g", got)
	}
	// Saturday 12:00 (day 5) — weekend.
	if got := cfg.presenceAt(5*86400 + 12*3600); got != cfg.PresenceWeekend {
		t.Errorf("weekend presence = %g", got)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	cs := Analyze(nil)
	if cs.Samples != 0 || cs.NonIdleFraction != 0 {
		t.Errorf("Analyze(nil) = %+v", cs)
	}
}

func TestPresetsProduceDistinctRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical calibration test")
	}
	gen := func(cfg Config) CorpusStats {
		cfg.Days = 7
		corpus, err := GenerateCorpus(cfg, 4, stats.NewRNG(50))
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(corpus)
	}
	def := gen(DefaultConfig())
	office := gen(OfficeConfig())
	lab := gen(StudentLabConfig())
	server := gen(ServerRoomConfig())

	// The lab is busier than the default; the server room far less
	// keyboard-active but still intermittently non-idle.
	if lab.NonIdleFraction <= def.NonIdleFraction {
		t.Errorf("lab non-idle %.3f not above default %.3f", lab.NonIdleFraction, def.NonIdleFraction)
	}
	if server.NonIdleFraction <= 0.01 || server.NonIdleFraction >= def.NonIdleFraction {
		t.Errorf("server non-idle %.3f, want in (0.01, %.3f)", server.NonIdleFraction, def.NonIdleFraction)
	}
	// Office hours concentrate: the office preset has longer idle
	// episodes (whole nights) than the default.
	if office.MeanIdleEpisode <= def.MeanIdleEpisode {
		t.Errorf("office mean idle episode %.0f not above default %.0f",
			office.MeanIdleEpisode, def.MeanIdleEpisode)
	}
	// Server machines show CPU-driven non-idleness: their non-idle mean
	// CPU is high (only heavy spikes trip the threshold).
	if server.MeanCPUNonIdle <= def.MeanCPUNonIdle {
		t.Errorf("server non-idle CPU %.3f not above default %.3f",
			server.MeanCPUNonIdle, def.MeanCPUNonIdle)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{OfficeConfig(), StudentLabConfig(), ServerRoomConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// corpusDigest is the SHA-256 of the Write output of every trace in order.
func corpusDigest(t *testing.T, corpus []*Trace) string {
	t.Helper()
	h := sha256.New()
	for _, tr := range corpus {
		if err := Write(h, tr); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusGoldenDigest pins the bytes of a small corpus. The digest was
// computed with the original implementation (math/rand through its Source
// interface, row-layout samples, serial fill), so it holds the concrete
// source, the column layout and the parallel fill to the same output.
func TestCorpusGoldenDigest(t *testing.T) {
	const want = "8e4ef0bcde8ef7f6909c2ab8ba34cb4d234cc421672883de8e5bdf5b51b5458c"
	if got := corpusDigest(t, testCorpus(t, 4, 2, 20260417)); got != want {
		t.Errorf("4-machine x 2-day corpus digest = %s, want %s", got, want)
	}
}

// TestGenerateCorpusMatchesSerial checks the split-then-fill argument: the
// parallel corpus equals Generate run in turn on the same sequence of
// splits, whatever the number of goroutines filling it.
func TestGenerateCorpusMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	const machines, seed = 5, 3
	root := stats.NewRNG(seed)
	serial := make([]*Trace, machines)
	for i := range serial {
		tr, err := Generate(cfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = tr
	}
	want := corpusDigest(t, serial)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := corpusDigest(t, testCorpus(t, machines, 1, seed))
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Errorf("GOMAXPROCS=%d: corpus digest %s, serial Generate %s", procs, got, want)
		}
	}
}
