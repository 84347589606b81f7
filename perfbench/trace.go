package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one request share ID; Parent indexes the enclosing span
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one branch per call.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	lastID uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanRef names a recorded span; the zero value (nil tracer) is a no-op.
type spanRef struct {
	tr  *tracer
	idx int32
	id  uint64
}

// begin opens a root span, one request, that started at at.
func (t *tracer) begin(name string, at time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.open(name, t.lastID, -1, at)
}

// open appends a span; t.mu must be held.
func (t *tracer) open(name string, id uint64, parent int32, at time.Time) spanRef {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(at.Sub(t.base)), End: -1})
	return spanRef{tr: t, idx: int32(len(t.spans) - 1), id: id}
}

// end closes the span at t.
func (t *tracer) end(r spanRef, at time.Time) {
	if t == nil || r.tr == nil {
		return
	}
	t.mu.Lock()
	t.spans[r.idx].End = int64(at.Sub(t.base))
	t.mu.Unlock()
}

// child opens a span of the same request under r, starting now.
func (r spanRef) child(name string) spanRef {
	if r.tr == nil {
		return spanRef{}
	}
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	return r.tr.open(name, r.id, r.idx, time.Now())
}

// done closes r now.
func (r spanRef) done() {
	if r.tr != nil {
		r.tr.end(r, time.Now())
	}
}

// timed runs f inside a root span named name and returns its wall time.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := time.Now()
	ref := t.begin(name, start)
	f()
	end := time.Now()
	t.end(ref, end)
	return end.Sub(start)
}

// layerOf is the module a span name belongs to: the text before its
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover. Children are clipped to their parent and their
// overlaps merged, so concurrent children are not counted twice.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, cur := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, cur), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
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
