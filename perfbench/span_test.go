package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// The parent covers [0, 100). Its children a [10, 50) and b [30, 70)
// overlap, c [90, 120) outlives it; a has its own child [20, 30).
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "parent", parent: noSpan, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 50},
		{name: "b", parent: 0, start: 30, end: 70},
		{name: "c", parent: 0, start: 90, end: 120},
		{name: "a.child", parent: 1, start: 20, end: 30},
	}}
	got := tr.selfTimes()
	// parent: 100 minus [10, 70) and [90, 100).
	want := []int64{30, 30, 40, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", tr.spans[i].name, got[i], want[i])
		}
	}
	by := tr.selfByName()
	if by["parent"] != 30e-9 || by["a.child"] != 10e-9 {
		t.Errorf("selfByName = %v", by)
	}
}

// Fabric executor spans arrive from several agent goroutines at once.
func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", noSpan, -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.end(tr.begin("task", root, int64(i)))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	if len(tr.spans) != 2001 {
		t.Fatalf("%d spans, want 2001", len(tr.spans))
	}
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span %d ends before it starts", i)
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", noSpan, 1)
	tr.end(h)
	if h != noSpan {
		t.Errorf("nil tracer returned handle %d", h)
	}
}

func TestSpansJSONL(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", noSpan, -1)
	tr.end(tr.begin("leaf", root, 7))
	tr.end(root)
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var lines []spanLine
	for dec.More() {
		var l spanLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 || lines[1].Name != "leaf" || lines[1].Parent != 0 || lines[1].ID != 7 {
		t.Fatalf("lines = %+v", lines)
	}
	if r := lines[0]; r.SelfNS != r.EndNS-r.StartNS-(lines[1].EndNS-lines[1].StartNS) {
		t.Errorf("root self %d does not exclude its child", r.SelfNS)
	}
}
