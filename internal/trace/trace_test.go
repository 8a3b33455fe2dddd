package trace

import (
	"math"
	"testing"
)

// flatSamples returns n identical samples with 30 MB free.
func flatSamples(n int, cpu float64, kb bool) []Sample {
	s := make([]Sample, n)
	for i := range s {
		s[i] = Sample{CPU: cpu, FreeMB: 30, Keyboard: kb}
	}
	return s
}

// flat returns a 64 MB trace of n identical samples.
func flat(n int, cpu float64, kb bool) *Trace {
	return NewTrace(SampleInterval, 64, flatSamples(n, cpu, kb))
}

// edited returns a 64 MB trace of n identical samples after edit has
// changed the samples.
func edited(n int, cpu float64, edit func([]Sample)) *Trace {
	s := flatSamples(n, cpu, false)
	edit(s)
	return NewTrace(SampleInterval, 64, s)
}

func TestNewTraceCopiesSamples(t *testing.T) {
	s := []Sample{{CPU: 0.1, FreeMB: 20}, {CPU: 0.9, FreeMB: 5, Keyboard: true}}
	tr := NewTrace(SampleInterval, 64, s)
	s[1] = Sample{}
	if tr.Len() != 2 || tr.Interval() != SampleInterval || tr.TotalMB() != 64 {
		t.Fatalf("shape = %d/%g/%g", tr.Len(), tr.Interval(), tr.TotalMB())
	}
	if got := tr.Sample(1); got != (Sample{CPU: 0.9, FreeMB: 5, Keyboard: true}) {
		t.Errorf("Sample(1) = %+v after the input slice changed", got)
	}
}

func TestIdleMaskQuietTraceIsIdle(t *testing.T) {
	tr := flat(100, 0.02, false)
	for i, idle := range tr.IdleMask() {
		if !idle {
			t.Fatalf("sample %d of quiet trace not idle", i)
		}
	}
}

func TestIdleMaskBusyTraceIsNonIdle(t *testing.T) {
	tr := flat(100, 0.5, false)
	for i, idle := range tr.IdleMask() {
		if idle {
			t.Fatalf("sample %d of busy trace idle", i)
		}
	}
}

func TestIdleMaskKeyboardForcesNonIdle(t *testing.T) {
	tr := edited(100, 0.02, func(s []Sample) { s[10].Keyboard = true })
	mask := tr.IdleMask()
	if !mask[9] {
		t.Error("sample before keyboard should be idle")
	}
	if mask[10] {
		t.Error("keyboard sample should be non-idle")
	}
	// Recruitment delay: non-idle for 60 s (30 samples) after activity.
	for i := 11; i < 40; i++ {
		if mask[i] {
			t.Fatalf("sample %d within recruitment delay marked idle", i)
		}
	}
	if !mask[41] {
		t.Error("sample after recruitment delay should be idle again")
	}
}

func TestIdleMaskCPUThreshold(t *testing.T) {
	// Exactly at threshold counts as active.
	tr := edited(80, 0.02, func(s []Sample) { s[20].CPU = RecruitmentCPU })
	mask := tr.IdleMask()
	if mask[20] {
		t.Error("threshold CPU sample should be non-idle")
	}
	tr2 := edited(80, 0.02, func(s []Sample) { s[20].CPU = RecruitmentCPU - 0.001 })
	if !tr2.IdleMask()[20] {
		t.Error("below-threshold CPU sample should stay idle")
	}
}

func TestEpisodes(t *testing.T) {
	mask := []bool{true, true, false, false, false, true}
	eps := Episodes(mask, 2)
	if len(eps) != 3 {
		t.Fatalf("episodes = %d, want 3", len(eps))
	}
	if !eps[0].Idle || eps[0].Start != 0 || eps[0].End != 4 {
		t.Errorf("episode 0 = %+v", eps[0])
	}
	if eps[1].Idle || eps[1].Duration() != 6 {
		t.Errorf("episode 1 = %+v", eps[1])
	}
	if !eps[2].Idle || eps[2].End != 12 {
		t.Errorf("episode 2 = %+v", eps[2])
	}
	if Episodes(nil, 2) != nil {
		t.Error("Episodes(nil) should be nil")
	}
}

func TestEpisodesCoverTrace(t *testing.T) {
	mask := make([]bool, 500)
	for i := range mask {
		mask[i] = i%7 < 3
	}
	eps := Episodes(mask, SampleInterval)
	var total float64
	prevEnd := 0.0
	for _, ep := range eps {
		if ep.Start != prevEnd {
			t.Fatalf("episode gap at %g", ep.Start)
		}
		prevEnd = ep.End
		total += ep.Duration()
	}
	if want := float64(len(mask)) * SampleInterval; total != want {
		t.Errorf("episodes cover %g s, want %g", total, want)
	}
}

func TestAtWraps(t *testing.T) {
	tr := edited(10, 0.02, func(s []Sample) { s[3].CPU = 0.7 })
	if got := tr.At(3 * SampleInterval).CPU; got != 0.7 {
		t.Errorf("At(6s).CPU = %g", got)
	}
	// One full lap later.
	if got := tr.At((3 + 10) * SampleInterval).CPU; got != 0.7 {
		t.Errorf("wrapped At = %g", got)
	}
	// Negative times wrap too.
	if got := tr.At(-7 * SampleInterval).CPU; got != 0.7 {
		t.Errorf("negative wrapped At = %g", got)
	}
}

func TestViewOffset(t *testing.T) {
	tr := edited(10, 0.02, func(s []Sample) { s[5].CPU = 0.9 })
	v := NewView(tr, 5*SampleInterval)
	if got := v.UtilizationAt(0); got != 0.9 {
		t.Errorf("view UtilizationAt(0) = %g, want 0.9", got)
	}
	if v.IdleAt(0) {
		t.Error("view should be non-idle at the busy sample")
	}
	if got := v.SampleAt(0).CPU; got != 0.9 {
		t.Errorf("SampleAt(0).CPU = %g", got)
	}
	if v.Interval() != SampleInterval {
		t.Errorf("Interval() = %g", v.Interval())
	}
}

func TestValidate(t *testing.T) {
	tr := flat(5, 0.5, false)
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := edited(5, 0.5, func(s []Sample) { s[2].CPU = 1.5 })
	if bad.Validate() == nil {
		t.Error("CPU > 1 accepted")
	}
	bad2 := edited(5, 0.5, func(s []Sample) { s[2].FreeMB = 100 })
	if bad2.Validate() == nil {
		t.Error("free memory > total accepted")
	}
	bad3 := NewTrace(0, 64, flatSamples(5, 0.5, false))
	if bad3.Validate() == nil {
		t.Error("zero interval accepted")
	}
}

func TestDuration(t *testing.T) {
	tr := flat(100, 0, false)
	if got := tr.Duration(); math.Abs(got-200) > 1e-9 {
		t.Errorf("Duration() = %g, want 200", got)
	}
}
