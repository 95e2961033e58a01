package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped, never recorded.
const maxSpans = 2_000_000

// span is one timed call into a layer. Parent is the span that caused
// it, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer, or one switched off, records nothing.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// spanHandle is an open span; end closes it.
type spanHandle struct {
	t      *tracer
	name   string
	id     int64
	parent int64
	start  time.Time
}

// start opens a span under parent. It is a no-op when tracing is off.
func (t *tracer) start(name string, parent int64) spanHandle {
	if !t.enabled() {
		return spanHandle{}
	}
	return spanHandle{t: t, name: name, id: t.next.Add(1), parent: parent, start: time.Now()}
}

// end closes the span and returns its duration (0 when not recording).
func (h spanHandle) end() time.Duration {
	if h.t == nil {
		return 0
	}
	now := time.Now()
	h.t.add(span{Name: h.name, ID: h.id, Parent: h.parent,
		Start: int64(h.start.Sub(h.t.t0)), End: int64(now.Sub(h.t.t0))})
	return now.Sub(h.start)
}

// record adds a span whose bounds were taken elsewhere.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if !t.enabled() {
		return
	}
	t.add(span{Name: name, ID: t.next.Add(1), Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, s)
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// durationsMS is durations in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	ds := t.durations(name)
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// layerTime is one layer's share of the trace.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes reports, per span name, the summed duration and the
// summed self time: each span's duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += ms(s.dur())
		lt.SelfMS += ms(s.dur() - covered(s, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeOut stores the spans, counters and per-layer self times as JSON
// under dir and prints the self-time table.
func (t *tracer) writeOut(dir, workload string, seed int64) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("layer self time (traced phase and ladder):")
	for _, n := range names {
		lt := self[n]
		fmt.Printf("  %-28s %8d spans  total %10.2f ms  self %10.2f ms\n", n, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"dropped":  t.dropped.Load(),
		"counters": t.counts,
		"self":     self,
		"spans":    t.spans,
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace written to %s (%d bytes)\n", path, len(data))
	return nil
}
