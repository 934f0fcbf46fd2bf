package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the system: a setup
// phase, a Cluster.Run slice, a ControlPlane.Apply, a traffic Net().Send,
// or the standalone placement replay. Times are host time since the
// tracer's origin; parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. All spans are opened and closed on the
// benchmark's own goroutine (control-loop callbacks run there too), so the
// open-span stack gives each span its parent. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned (the innermost open one).
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durations returns the durations, in ns, of the spans with this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
