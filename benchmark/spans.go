package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its layer and name, when it
// started and ended (ns since the tracer's epoch), the span that caused
// it (0 for none) and the request it belongs to (0 for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps finished spans in memory until the run ends. A nil
// tracer records nothing, so the untraced run executes the same code
// path minus the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int    // guarded by mu
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end files it with the tracer.
type openSpan struct {
	t  *tracer
	sp span
}

// begin starts a span. parent and request are ids returned by earlier
// calls (0 for none).
func (t *tracer) begin(layer, name string, parent, request int) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, sp: span{
		ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		StartNS: int64(time.Since(t.epoch)),
	}}
}

// id identifies the span as a parent of later ones; 0 when untraced.
func (o openSpan) id() int { return o.sp.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.sp.EndNS = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.sp)
	o.t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took in seconds.
// The clock reads are the measurement; the span is the record of it.
func (t *tracer) timed(layer, name string, parent int, fn func()) float64 {
	sp := t.begin(layer, name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.end()
	return d.Seconds()
}

// finished returns the recorded spans in start order.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, c := range kids {
			lo, hi := max(c.StartNS, upTo), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// spanCost measures what recording one span costs, in seconds, on a
// scratch tracer: the traced run multiplies it by its span count to
// bound the tracing overhead without needing the untraced run.
func spanCost() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin("trace", "calibrate", 0, 0).end()
	}
	return time.Since(start).Seconds() / n
}

// writeSpans writes the spans and the environment as one JSON document.
func writeSpans(path string, env environment, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Environment environment `json:"environment"`
		Workload    string      `json:"workload"`
		Spans       []span      `json:"spans"`
	}{env, workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
