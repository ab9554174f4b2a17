package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one operation share op; parent is the
// index of the enclosing span, -1 at an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one nil check per boundary, which is how untraced runs
// execute the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle to an open span.
type spanRef struct {
	t  *tracer
	ix int
	op int
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{ix: -1}
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(name, op, -1)
}

func (t *tracer) open(name string, op, parent int) spanRef {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	ix := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	t.mu.Unlock()
	return spanRef{t: t, ix: ix, op: op}
}

// child opens a span nested in s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{ix: -1}
	}
	return s.t.open(name, s.op, s.ix)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.ix].End = now
	s.t.mu.Unlock()
}

// selfTimes reduces the spans to each layer's self time in seconds: a
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			iv = append(iv, [2]int64{t.spans[k].Start, t.spans[k].End})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, x := range iv {
			lo, hi := max(x[0], reach), min(x[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
