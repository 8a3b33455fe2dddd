package predict

import (
	"math"
	"testing"
	"testing/quick"

	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

func TestMedianLife(t *testing.T) {
	var p MedianLife
	if got := p.PredictRemaining(30); got != 30 {
		t.Errorf("PredictRemaining(30) = %g, want 30 (2x rule)", got)
	}
	if got := p.PredictRemaining(0); got != 0 {
		t.Errorf("PredictRemaining(0) = %g", got)
	}
	p.Record(100) // no-op, must not panic
}

func TestMedianLifePanicsOnNegativeAge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative age did not panic")
		}
	}()
	MedianLife{}.PredictRemaining(-1)
}

func TestFixedHorizon(t *testing.T) {
	p := FixedHorizon{Horizon: 60}
	if got := p.PredictRemaining(20); got != 40 {
		t.Errorf("PredictRemaining(20) = %g, want 40", got)
	}
	if got := p.PredictRemaining(90); got != 0 {
		t.Errorf("PredictRemaining(90) = %g, want 0 (floored)", got)
	}
}

func TestEmpiricalFallsBackUntilTrained(t *testing.T) {
	var e Empirical
	if got := e.PredictRemaining(25); got != 25 {
		t.Errorf("untrained Empirical = %g, want 2x fallback 25", got)
	}
	for i := 0; i < 30; i++ {
		e.Record(100)
	}
	if e.N() != 30 {
		t.Errorf("N() = %d", e.N())
	}
	// All episodes last exactly 100: at age 25 the remaining is 75.
	if got := e.PredictRemaining(25); math.Abs(got-75) > 1e-9 {
		t.Errorf("trained Empirical at age 25 = %g, want 75", got)
	}
	// Beyond anything seen: sane non-negative output.
	if got := e.PredictRemaining(500); got < 0 {
		t.Errorf("prediction beyond data = %g", got)
	}
}

func TestEmpiricalRecordPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative length did not panic")
		}
	}()
	(&Empirical{}).Record(-1)
}

// Property: all predictors return non-negative predictions for any
// non-negative age.
func TestPredictorsNonNegativeQuick(t *testing.T) {
	var e Empirical
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		e.Record(rng.ExpFloat64() * 50)
	}
	preds := []Predictor{MedianLife{}, FixedHorizon{Horizon: 40}, &e}
	f := func(raw uint16) bool {
		age := float64(raw) / 10
		for _, p := range preds {
			if p.PredictRemaining(age) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// For exponential lifetimes the memoryless property makes the true
// remaining life constant: the 2x rule over-predicts at large ages and
// the trained empirical predictor beats it.
func TestEvaluateExponentialFavorsEmpirical(t *testing.T) {
	rng := stats.NewRNG(2)
	lengths := make([]float64, 5000)
	var e Empirical
	for i := range lengths {
		lengths[i] = rng.ExpFloat64() * 100
		e.Record(lengths[i])
	}
	ages := []float64{10, 50, 100, 200, 400}
	medianErr, err := Evaluate(MedianLife{}, lengths, ages)
	if err != nil {
		t.Fatal(err)
	}
	empErr, err := Evaluate(&e, lengths, ages)
	if err != nil {
		t.Fatal(err)
	}
	if empErr >= medianErr {
		t.Errorf("on exponential lifetimes Empirical (%.3f) should beat the 2x rule (%.3f)",
			empErr, medianErr)
	}
}

// For heavy-tailed (Pareto-like) lifetimes — the distribution
// Harchol-Balter & Downey observed for process lifetimes — the 2x rule is
// close to optimal: remaining life is proportional to age.
func TestEvaluateParetoFavorsMedianRule(t *testing.T) {
	rng := stats.NewRNG(3)
	// Pareto(alpha=1.1, xm=2): P(L > x) = (xm/x)^alpha. Median remaining
	// life at age a is a*(2^(1/alpha)-1) ~ 0.88a: nearly the 2x rule.
	lengths := make([]float64, 20000)
	for i := range lengths {
		u := rng.Float64()
		lengths[i] = 2 / math.Pow(1-u, 1/1.1)
	}
	ages := []float64{5, 10, 20, 40, 80}
	medianErr, err := Evaluate(MedianLife{}, lengths, ages)
	if err != nil {
		t.Fatal(err)
	}
	fixedErr, err := Evaluate(FixedHorizon{Horizon: 30}, lengths, ages)
	if err != nil {
		t.Fatal(err)
	}
	if medianErr > 0.35 {
		t.Errorf("2x rule error on Pareto lifetimes = %.3f, want small", medianErr)
	}
	if medianErr >= fixedErr {
		t.Errorf("2x rule (%.3f) should beat a fixed horizon (%.3f) on heavy tails",
			medianErr, fixedErr)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(MedianLife{}, nil, []float64{1}); err == nil {
		t.Error("empty lengths accepted")
	}
	if _, err := Evaluate(MedianLife{}, []float64{1}, nil); err == nil {
		t.Error("empty ages accepted")
	}
	if _, err := Evaluate(MedianLife{}, []float64{1, 2}, []float64{100}); err == nil {
		t.Error("no surviving episodes should error")
	}
}

// Validation of the paper's premise on our own substrate: non-idle
// episodes extracted from the synthetic traces have age-proportional
// median remaining life within a reasonable band, so the 2x-age rule is a
// sensible linger predictor here too.
func TestTwoXRuleHoldsOnSyntheticEpisodes(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.Days = 7
	corpus, err := trace.GenerateCorpus(cfg, 6, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	var lengths []float64
	for _, tr := range corpus {
		for _, ep := range trace.Episodes(tr.IdleMask(), tr.Interval()) {
			if !ep.Idle {
				lengths = append(lengths, ep.Duration())
			}
		}
	}
	if len(lengths) < 100 {
		t.Fatalf("only %d non-idle episodes", len(lengths))
	}
	truth := MedianRemaining(lengths, []float64{60, 120, 300, 600})
	for age, rem := range truth {
		ratio := rem / age
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("median remaining at age %.0f = %.0f (ratio %.2f); the 2x rule premise breaks",
				age, rem, ratio)
		}
	}
}
