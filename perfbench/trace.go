package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent 0 marks a root; spans of one repetition share Run.
type span struct {
	Run    int     `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) seconds() float64 { return (s.End - s.Start) / 1e6 }

// tracer keeps spans in memory; write dumps them once at the end.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns microseconds since the tracer's epoch. Like add, begin and
// end, it does nothing on a nil tracer (an untraced repetition).
func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return sinceMicros(t.epoch)
}

func sinceMicros(epoch time.Time) float64 {
	return float64(time.Since(epoch).Nanoseconds()) / 1e3
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end float64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, t.now(), 0)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = t.now()
	}
}

func (t *tracer) span(id int) span { return t.spans[id-1] }

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfSeconds is a span's duration minus the part of it its children
// cover (overlapping children, as in a parallel sweep, count once).
func (t *tracer) selfSeconds(id int) float64 {
	p := t.span(id)
	kids := t.children(id)
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	covered, reach := 0.0, p.Start
	for _, k := range kids {
		start, end := max(k.Start, reach), min(k.End, p.End)
		if end > start {
			covered += end - start
			reach = end
		}
	}
	return (p.End - p.Start - covered) / 1e6
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// decisionClock is the sim.Clock traced runs inject. The simulator
// reads it exactly twice around every scheduler decision (Refresh plus
// allocation adjustment, and Place), so consecutive reading pairs are the
// decision spans. Readings are microseconds since the given epoch.
type decisionClock struct {
	epoch  time.Time
	stamps []float64
}

func newDecisionClock(epoch time.Time) *decisionClock {
	return &decisionClock{epoch: epoch, stamps: make([]float64, 0, 1024)}
}

func (c *decisionClock) Now() float64 {
	v := sinceMicros(c.epoch)
	c.stamps = append(c.stamps, v)
	return v
}

// decisions returns the [start, end] pairs of the recorded decisions.
func (c *decisionClock) decisions() [][2]float64 {
	out := make([][2]float64, 0, len(c.stamps)/2)
	for i := 0; i+1 < len(c.stamps); i += 2 {
		out = append(out, [2]float64{c.stamps[i], c.stamps[i+1]})
	}
	return out
}
