package cluster

import (
	"math"
	"reflect"
	"testing"

	"lingerlonger/internal/core"
	"lingerlonger/internal/trace"
)

// Metamorphic relations over the whole simulator: each compares two runs
// that must agree for a reason outside the code under test, so they hold
// across any refactor of the policy plumbing that keeps the model.

// An LL linger deadline scaled past any episode never fires, so LL must
// behave exactly like LF: same placements, same lingers, same bytes.
func TestPolicyMetamorphicHugeMultiplierIsLF(t *testing.T) {
	corpus := testCorpus(t, 16, 2, 5)
	for seed := int64(1); seed <= 3; seed++ {
		ll := smallConfig(core.LingerLonger)
		ll.Seed = seed
		ll.LingerMultiplier = 1e300
		lf := smallConfig(core.LingerForever)
		lf.Seed = seed
		a, err := Run(ll, corpus)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(lf, corpus)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: LL with an unreachable deadline differs from LF:\nLL %+v\nLF %+v", seed, *a, *b)
		}
		if b.Breakdown.Lingering == 0 {
			t.Errorf("seed %d: no job ever lingered, so the relation checks nothing", seed)
		}
	}
	// The unscaled deadline does fire on this corpus.
	plain, err := Run(smallConfig(core.LingerLonger), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Migrations == 0 {
		t.Error("plain LL never migrated, so the relation checks nothing")
	}
}

// idleCorpus is one workstation whose owner never touches it: CPU 0 and
// 40 MB free for two days.
func idleCorpus() []*trace.Trace {
	samples := make([]trace.Sample, int(2*86400/trace.SampleInterval))
	for i := range samples {
		samples[i] = trace.Sample{FreeMB: 40}
	}
	return []*trace.Trace{trace.NewTrace(trace.SampleInterval, 64, samples)}
}

// With no owner ever returning, no policy decision is ever taken, so the
// four paper policies must give identical Results.
func TestPolicyMetamorphicIdleCorpusPoliciesAgree(t *testing.T) {
	corpus := idleCorpus()
	ref, err := Run(smallConfig(core.LingerLonger), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.AvgCompletion-301.0101) > 1e-4 {
		t.Errorf("LL mean completion on an idle corpus = %.6f, want 301.0101", ref.AvgCompletion)
	}
	for _, p := range core.Policies[1:] {
		res, err := Run(smallConfig(p), corpus)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("%v on an idle corpus differs from LL:\n%v %+v\nLL %+v", p, p, *res, *ref)
		}
	}
	// FS differs, and not because of any policy decision: it serves the
	// foreign job with a fluid max(1-u, 1/2) rate model instead of the
	// fine-grain strict-priority node, so it pays no context switches.
	fs, err := Run(smallConfig(core.FractionalShare), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fs.AvgCompletion-300) > 1e-9 {
		t.Errorf("FS mean completion on an idle corpus = %.9f, want 300", fs.AvgCompletion)
	}
	if reflect.DeepEqual(ref, fs) {
		t.Error("FS matches the fine-grain policies on an idle corpus; the fluid-model gap vanished")
	}
}
