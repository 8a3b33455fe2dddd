package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span, and what begin returns on a nil
// tracer.
const noSpan = -1

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer.
type span struct {
	name       string
	id         int64 // point or request id; -1 when the span has none
	parent     int   // index of the enclosing span, or noSpan
	start, end int64 // nanoseconds since the tracer started
}

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use (fabric executor spans arrive from agent
// goroutines), and every method is a no-op on a nil tracer, so the
// untraced pass runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if t == nil || h == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children. Children may
// overlap one another (concurrent fabric slots) or outlive their parent;
// only the covered part of the parent's interval counts. Call it after
// every span has ended.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start - covered(t.spans, kids[i], s.start, s.end)
	}
	return self
}

// covered returns how much of [lo, hi) the union of the given spans
// covers.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, k := range idx {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, reach int64 = 0, lo
	for _, v := range ivs {
		a := max(v.a, reach)
		if v.b > a {
			total += v.b - a
			reach = v.b
		}
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range t.selfTimes() {
		out[t.spans[i].name] += float64(ns) / 1e9
	}
	return out
}

// spanLine is one line of the spans file.
type spanLine struct {
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ns := range t.selfTimes() {
		s := t.spans[i]
		if err := enc.Encode(spanLine{i, s.parent, s.name, s.id, s.start, s.end, ns}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFile writes the spans to path.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
