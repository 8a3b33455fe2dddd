package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a results file written with --record: one run
// of one workload.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// appendRecord adds one run to a results file.
func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one end-to-end metric of one workload over the
// untraced, correct runs of a results file.
func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != 0 || !r.Result.Correct {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the runs b of a change with the runs a of its baseline
// under one metric's bound. The median may worsen by at most the bound;
// where either side's spread (quartile distance over median) is wider
// than the bound the metric is unresolved, unless every run of b reads
// better than every run of a.
func judge(m metricDef, a, b []float64) (verdict string, change float64) {
	if len(a) < 3 || len(b) < 3 {
		return unresolved, 0
	}
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	bound := *m.Bound
	if spread(a) > bound || spread(b) > bound {
		if allBetter(m, a, b) {
			return improved, change
		}
		return unresolved, change
	}
	switch {
	case worse > bound:
		return regressed, change
	case worse < -bound:
		return improved, change
	default:
		return unchanged, change
	}
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// failures sums the failed and attempted operations and counts the runs
// and the incorrect runs of one workload's untraced records.
func failures(rs []record, workload string) (failed, attempted, runs, incorrect int) {
	for _, r := range rs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		failed += r.Result.Failed
		attempted += r.Result.Attempted
		runs++
		if !r.Result.Correct {
			incorrect++
		}
	}
	return failed, attempted, runs, incorrect
}

// judgeErrors is the correctness verdict of one workload, which has no
// bound: B regresses when any of its runs is incorrect, when its share of
// failed operations is above A's, or when it has no runs where A has
// some.
func judgeErrors(a, b []record, workload string) (verdict, detail string) {
	fa, na, ra, _ := failures(a, workload)
	fb, nb, rb, bad := failures(b, workload)
	detail = fmt.Sprintf("A %d of %d failed (%d runs)  B %d of %d failed (%d runs, %d incorrect)", fa, na, ra, fb, nb, rb, bad)
	switch {
	case ra == 0 && rb == 0:
		return unresolved, detail
	case bad > 0, rb == 0, ra > 0 && na > 0 && float64(fb)*float64(na) > float64(fa)*float64(nb):
		return regressed, detail
	default:
		return unchanged, detail
	}
}

// compare prints, per workload, the correctness verdict and one line per
// end-to-end metric, and reports whether anything regressed.
func compare(w io.Writer, f *benchFile, a, b []record) bool {
	bad := false
	for _, wl := range f.Workloads {
		v, detail := judgeErrors(a, b, wl.Name)
		bad = bad || v == regressed
		fmt.Fprintf(w, "%-12s %-12s %s  %s\n", wl.Name, "failed", detail, v)
		for _, m := range f.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			v, change := judge(m, va, vb)
			bad = bad || v == regressed
			fmt.Fprintf(w, "%-12s %-12s A %s  B %s  change %+.2f%%  bound %.0f%%  %s\n",
				wl.Name, m.Name, describe(va), describe(vb), 100*change, 100**m.Bound, v)
		}
	}
	return bad
}

// describe renders a sample as median [q1, q3] (n).
func describe(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%d runs", len(xs))
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (n=%d)", median(xs), q1, q3, len(xs))
}
