package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lingerlonger/internal/obs"
)

// fakeResults marshals one ClusterPoint per (workload, policy) cell with
// the given average completion times, workload-major like the expansion.
func fakeResults(t *testing.T, wls, pols []string, avg map[string]float64) [][]byte {
	t.Helper()
	var out [][]byte
	for _, wl := range wls {
		for _, pol := range pols {
			b, err := json.Marshal(ClusterPoint{Policy: pol, Workload: wl, AvgCompletion: avg[wl+"/"+pol]})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

func tournamentSpec(t *testing.T, wls, pols []string) *Spec {
	t.Helper()
	s := &Spec{
		Version: SpecVersion,
		Name:    "tournament",
		Kind:    KindCluster,
		Sweep:   &Axes{Policies: pols, Workloads: wls},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildTournamentDefaults(t *testing.T) {
	spec, specs, err := BuildTournament(TournamentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	np, nw := len(Policies.Names()), len(Workloads.Names())
	if len(specs) != np*nw {
		t.Errorf("expanded %d cells, want %d x %d", len(specs), nw, np)
	}
	if spec.Seed != 1 || spec.Name != "tournament" {
		t.Errorf("spec = %+v", spec)
	}
}

func TestRankOrdersAndScores(t *testing.T) {
	wls, pols := []string{"w1", "w2"}, []string{"LL", "LF", "IE"}
	s := tournamentSpec(t, wls, pols)
	res := fakeResults(t, wls, pols, map[string]float64{
		"w1/LL": 100, "w1/LF": 200, "w1/IE": 400,
		"w2/LL": 300, "w2/LF": 150, "w2/IE": 150, // LF/IE tie: axis order wins
	})
	rep, err := Rank(s, true, res)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Rankings[0].Order[0].Policy; got != "LL" {
		t.Errorf("w1 winner = %s, want LL", got)
	}
	if got := rep.Rankings[1].Order[0].Policy; got != "LF" {
		t.Errorf("w2 winner = %s, want LF (tie broken by axis order)", got)
	}
	if got := rep.Rankings[1].Order[1].Policy; got != "IE" {
		t.Errorf("w2 runner-up = %s, want IE", got)
	}
	// LL: 100/100 + 300/150 = 3.0 over 2 workloads -> 1.5
	// LF: 200/100 + 150/150 = 3.0 -> 1.5 (tie with LL, axis order)
	// IE: 400/100 + 150/150 = 5.0 -> 2.5
	if rep.Overall[0].Policy != "LL" || rep.Overall[1].Policy != "LF" || rep.Overall[2].Policy != "IE" {
		t.Errorf("overall = %+v", rep.Overall)
	}
	if rep.Overall[0].Score != 1.5 || rep.Overall[2].Score != 2.5 {
		t.Errorf("scores = %g, %g; want 1.5, 2.5", rep.Overall[0].Score, rep.Overall[2].Score)
	}
	data, err := EncodeTournament(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTournamentReport(data); err != nil {
		t.Errorf("self-encoded report fails validation: %v", err)
	}
}

func TestRankIncompleteCellsLast(t *testing.T) {
	wls, pols := []string{"w1"}, []string{"LL", "LF"}
	s := tournamentSpec(t, wls, pols)
	res := fakeResults(t, wls, pols, map[string]float64{
		"w1/LL": 0, // nothing completed
		"w1/LF": 500,
	})
	rep, err := Rank(s, false, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rankings[0].Order[0].Policy != "LF" || rep.Rankings[0].Order[1].Policy != "LL" {
		t.Errorf("incomplete cell did not rank last: %+v", rep.Rankings[0].Order)
	}
	if rep.Overall[1].Policy != "LL" || rep.Overall[1].Score != incompletePenalty {
		t.Errorf("incomplete overall = %+v, want LL at penalty %g", rep.Overall[1], float64(incompletePenalty))
	}
	// JSON must stay encodable (finite scores).
	if _, err := EncodeTournament(rep); err != nil {
		t.Errorf("report with incomplete cells does not encode: %v", err)
	}
}

func TestRankErrors(t *testing.T) {
	wls, pols := []string{"w1"}, []string{"LL"}
	good := fakeResults(t, wls, pols, map[string]float64{"w1/LL": 100})

	noSweep := &Spec{Version: SpecVersion, Name: "t", Kind: KindCluster}
	if err := noSweep.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Rank(noSweep, false, good); err == nil {
		t.Error("Rank accepted a spec without sweep axes")
	}

	multi := tournamentSpec(t, wls, pols)
	multi.Sweep = &Axes{Policies: pols, Workloads: wls, Seeds: 2}
	if _, err := Rank(multi, false, good); err == nil {
		t.Error("Rank accepted seeds != 1")
	}

	s := tournamentSpec(t, wls, pols)
	if _, err := Rank(s, false, nil); err == nil {
		t.Error("Rank accepted wrong result count")
	}
	if _, err := Rank(s, false, [][]byte{[]byte(`{{`)}); err == nil {
		t.Error("Rank accepted malformed cell bytes")
	}
	wrong := fakeResults(t, wls, []string{"LF"}, map[string]float64{"w1/LF": 100})
	if _, err := Rank(s, false, wrong); err == nil {
		t.Error("Rank accepted a cell reporting the wrong policy")
	}
}

func TestValidateTournamentReportRejects(t *testing.T) {
	wls, pols := []string{"w1", "w2"}, []string{"LL", "LF"}
	s := tournamentSpec(t, wls, pols)
	rep, err := Rank(s, true, fakeResults(t, wls, pols, map[string]float64{
		"w1/LL": 100, "w1/LF": 200, "w2/LL": 300, "w2/LF": 150,
	}))
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeTournament(rep)
	if err != nil {
		t.Fatal(err)
	}

	tamper := func(mod func(r *TournamentReport)) []byte {
		var r TournamentReport
		if err := json.Unmarshal(good, &r); err != nil {
			t.Fatal(err)
		}
		mod(&r)
		out, err := EncodeTournament(&r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte(`not json`)},
		{"unknown field", []byte(`{"schemaVersion": 1, "bogus": true}`)},
		{"trailing data", append(append([]byte{}, good...), []byte("{}")...)},
		{"oversized", bytes.Repeat([]byte(" "), MaxTournamentBytes+1)},
		{"schema skew", tamper(func(r *TournamentReport) { r.SchemaVersion = 2 })},
		{"bad digest", tamper(func(r *TournamentReport) { r.Digest = "short" })},
		{"empty axes", tamper(func(r *TournamentReport) { r.Workloads = nil })},
		{"cell count", tamper(func(r *TournamentReport) { r.Cells = r.Cells[:3] })},
		{"cell order", tamper(func(r *TournamentReport) {
			r.Cells[0], r.Cells[1] = r.Cells[1], r.Cells[0]
		})},
		{"ranking count", tamper(func(r *TournamentReport) { r.Rankings = r.Rankings[:1] })},
		{"ranking workload", tamper(func(r *TournamentReport) { r.Rankings[0].Workload = "w2" })},
		{"rank gap", tamper(func(r *TournamentReport) { r.Rankings[0].Order[1].Rank = 5 })},
		{"rank dup policy", tamper(func(r *TournamentReport) {
			r.Rankings[0].Order[1].Policy = r.Rankings[0].Order[0].Policy
		})},
		{"rank unknown policy", tamper(func(r *TournamentReport) { r.Overall[0].Policy = "ZZ" })},
		{"negative score", tamper(func(r *TournamentReport) { r.Overall[0].Score = -1 })},
		{"overall short", tamper(func(r *TournamentReport) { r.Overall = r.Overall[:1] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ValidateTournamentReport(tc.data); err == nil {
				t.Error("tampered report validated")
			}
		})
	}
}

func TestTournamentEndToEndDeterministic(t *testing.T) {
	// A restricted quick tournament, computed twice with different worker
	// counts, must produce byte-identical reports.
	cfg := TournamentConfig{
		Quick:     true,
		Policies:  []string{"LL", "FS"},
		Workloads: []string{"w2", "pareto"},
	}
	encode := func(workers int) []byte {
		spec, specs, err := BuildTournament(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, err := Run(workers, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Rank(spec, true, results)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeTournament(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := encode(1)
	pooled := encode(8)
	if !bytes.Equal(serial, pooled) {
		t.Errorf("tournament differs between workers=1 and workers=8:\n%s\n%s", serial, pooled)
	}
	rep, err := ValidateTournamentReport(serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Errorf("report has %d cells, want 4", len(rep.Cells))
	}
	if !strings.Contains(string(serial), `"digest"`) {
		t.Error("report is missing its digest")
	}
}

// Run hands its recorder to every point, so a tournament's -metrics dump
// counts what the cells simulate, not only the cells themselves. The
// counters are sums of per-point tallies, identical for any worker count,
// and recording them never changes a result byte.
func TestRunRecordsPointCounters(t *testing.T) {
	_, specs, err := BuildTournament(TournamentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(4, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var counters []map[string]int64
	for _, workers := range []int{1, 8} {
		rec := obs.New(obs.NewRegistry(), nil)
		results, err := Run(workers, specs, rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if !bytes.Equal(results[i], plain[i]) {
				t.Fatalf("workers=%d: point %d differs from the nil-recorder run:\n%s\n%s",
					workers, i, results[i], plain[i])
			}
		}
		counters = append(counters, rec.Registry().CounterValues())
	}
	for _, name := range []string{
		obs.Labeled(obs.ClusterPlacements, "policy", "LL"),
		obs.TraceSamplesFilled,
		obs.NodePreemptions,
	} {
		serial, pooled := counters[0][name], counters[1][name]
		if serial == 0 || serial != pooled {
			t.Errorf("%s: workers=1 counted %d, workers=8 %d; want equal and nonzero", name, serial, pooled)
		}
	}
	if len(counters[0]) != len(counters[1]) {
		t.Errorf("workers=1 registered %d counters, workers=8 %d", len(counters[0]), len(counters[1]))
	}
	for name, v := range counters[0] {
		if counters[1][name] != v {
			t.Errorf("counter %s: workers=1 has %d, workers=8 has %d", name, v, counters[1][name])
		}
	}
}

func TestBuildTournamentRejectsUnknownNames(t *testing.T) {
	if _, _, err := BuildTournament(TournamentConfig{Policies: []string{"ZZ"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, _, err := BuildTournament(TournamentConfig{Workloads: []string{"zz"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}
