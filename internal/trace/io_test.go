package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lingerlonger/internal/stats"
)

const goodTrace = `# a tiny two-sample trace
lltrace 1
interval 2
totalmb 64
0.05 32.5 0
0.90 10.25 1
`

func TestReadGoodTrace(t *testing.T) {
	tr, err := Read(strings.NewReader(goodTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != 2 || tr.TotalMB() != 64 || tr.Len() != 2 {
		t.Fatalf("parsed %+v", tr)
	}
	if s := tr.Sample(1); s.CPU != 0.90 || s.FreeMB != 10.25 || !s.Keyboard {
		t.Errorf("sample 1 = %+v", s)
	}
	if tr.Sample(0).Keyboard {
		t.Error("sample 0 keyboard should be false")
	}
}

func TestReadCorruptInputs(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int    // expected ParseError line
		want  string // substring of the message
	}{
		{"empty", "", 1, "missing"},
		{"comments only", "# nothing\n\n# here\n", 3, "missing"},
		{"wrong magic", "nottrace 1\n", 1, "not a trace file"},
		{"future version", "lltrace 99\ninterval 2\n", 1, "unsupported format version"},
		{"version not a number", "lltrace x\n", 1, "unsupported format version"},
		{"no samples", "lltrace 1\ninterval 2\ntotalmb 64\n", 3, "no samples"},
		{"sample before interval", "lltrace 1\ntotalmb 64\n0.5 10 0\n", 3, "before the interval"},
		{"sample before totalmb", "lltrace 1\ninterval 2\n0.5 10 0\n", 3, "before the totalmb"},
		{"late directive", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 10 0\ninterval 4\n", 5, "after the first sample"},
		{"negative interval", "lltrace 1\ninterval -2\n", 2, "must be positive"},
		{"zero totalmb", "lltrace 1\ninterval 2\ntotalmb 0\n", 3, "must be positive"},
		{"truncated sample", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 10\n", 4, "want 3 fields"},
		{"extra field", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 10 0 7\n", 4, "want 3 fields"},
		{"cpu not a number", "lltrace 1\ninterval 2\ntotalmb 64\nhigh 10 0\n", 4, "bad number"},
		{"cpu NaN", "lltrace 1\ninterval 2\ntotalmb 64\nNaN 10 0\n", 4, "non-finite"},
		{"cpu Inf", "lltrace 1\ninterval 2\ntotalmb 64\n+Inf 10 0\n", 4, "non-finite"},
		{"interval NaN", "lltrace 1\ninterval NaN\n", 2, "non-finite"},
		{"cpu above 1", "lltrace 1\ninterval 2\ntotalmb 64\n1.5 10 0\n", 4, "out of [0,1]"},
		{"cpu negative", "lltrace 1\ninterval 2\ntotalmb 64\n-0.1 10 0\n", 4, "out of [0,1]"},
		{"free above total", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 65 0\n", 4, "out of [0,64]"},
		{"free negative", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 -1 0\n", 4, "out of [0,64]"},
		{"free NaN", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 NaN 0\n", 4, "non-finite"},
		{"keyboard flag", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 10 yes\n", 4, "not 0 or 1"},
		{"keyboard numeric", "lltrace 1\ninterval 2\ntotalmb 64\n0.5 10 2\n", 4, "not 0 or 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.input))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not a *ParseError: %v", err, err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (%v)", pe.Line, tc.line, pe)
			}
			if !strings.Contains(pe.Msg, tc.want) {
				t.Errorf("message %q does not contain %q", pe.Msg, tc.want)
			}
		})
	}
}

func TestReadHugeLine(t *testing.T) {
	input := "lltrace 1\ninterval 2\ntotalmb 64\n0.5 " + strings.Repeat("9", 2<<20) + " 0\n"
	_, err := Read(strings.NewReader(input))
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "limit") {
		t.Fatalf("oversized line: %v", err)
	}
}

func TestLoadCarriesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("lltrace 1\ninterval 2\ntotalmb 64\nbroken line here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Path != path || pe.Line != 4 {
		t.Errorf("ParseError = %+v", pe)
	}
	if !strings.Contains(err.Error(), "bad.txt:4:") {
		t.Errorf("error text lacks path:line: %v", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("Load of a missing file must error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 1
	corpus, err := GenerateCorpus(cfg, 2, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range corpus {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if back.Interval() != tr.Interval() || back.TotalMB() != tr.TotalMB() || back.Len() != tr.Len() {
			t.Fatalf("trace %d: shape changed: %g/%g/%d vs %g/%g/%d", i,
				back.Interval(), back.TotalMB(), back.Len(), tr.Interval(), tr.TotalMB(), tr.Len())
		}
		for j := 0; j < tr.Len(); j++ {
			if back.Sample(j) != tr.Sample(j) {
				t.Fatalf("trace %d sample %d: %+v != %+v", i, j, back.Sample(j), tr.Sample(j))
			}
		}
	}
}

func TestWriteRejectsInvalidTrace(t *testing.T) {
	bad := NewTrace(2, 64, []Sample{{CPU: 3}})
	var buf bytes.Buffer
	if err := Write(&buf, bad); err == nil {
		t.Error("Write accepted an invalid trace")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr, err := Read(strings.NewReader(goodTrace))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.Sample(1) != tr.Sample(1) {
		t.Errorf("round trip changed the trace: %+v", back)
	}
}

// FuzzRead asserts the parser's two safety properties on arbitrary bytes:
// it never panics, and an input it accepts always yields a trace that
// passes Validate (the "no silent garbage" contract).
func FuzzRead(f *testing.F) {
	f.Add([]byte(goodTrace))
	f.Add([]byte(""))
	f.Add([]byte("lltrace 1\ninterval 2\ntotalmb 64\nNaN NaN NaN\n"))
	f.Add([]byte("lltrace 1\ninterval 1e308\ntotalmb 64\n0 0 0\n"))
	f.Add([]byte("lltrace 1\n# c\n\ninterval 0.5\ntotalmb 1\n1 1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("accepted input produced an invalid trace: %v", verr)
		}
		// A parsed trace must also survive re-serialization.
		var buf bytes.Buffer
		if werr := Write(&buf, tr); werr != nil {
			t.Fatalf("round trip write failed: %v", werr)
		}
	})
}
