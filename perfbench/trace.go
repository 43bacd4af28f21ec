package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval: a call the harness made into a layer.
// Spans of one op share Op; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run, so recording costs one append per span. A disabled tracer
// records nothing and its methods are no-ops.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int // indexes into spans of the open spans
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack)
	t.spans[t.stack[n-1]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its direct children cover, over the spans of the given ops.
// Children of one parent never overlap (the harness is single-threaded),
// so the covered part is the sum of the children's durations.
func selfTimes(spans []span, ops map[int]bool) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if ops[s.Op] {
			out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, in start order.
func writeSpans(path string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
