// Package trace is a dependency-free, allocation-conscious span
// recorder for the serving pipeline. One Trace is a flat span tree: a
// root interval (the HTTP request, or a replica sync) plus named child
// spans recorded as offsets from the root's begin time, each carrying
// optional string tags. Traces are minted at ingress — or adopted from
// a caller-supplied 64-bit id so a client and server share one id —
// threaded through the pipeline by value handoff, finished once, and
// then published to a Recorder as immutable values.
//
// Concurrency contract: a *Trace is owned by exactly one goroutine at
// a time. Handoffs (HTTP handler → coalescer ingest goroutine → back
// to the handler via the ack channel) must synchronize through a
// channel send/receive or equivalent, which establishes the
// happens-before edge the unguarded field writes rely on. After
// Finish the trace must not be mutated; Recorder only ever publishes
// finished traces, so readers of a dump never observe a torn trace.
//
// Every method on *Trace is nil-safe: with tracing disabled the
// pipeline threads a nil *Trace through the same code paths and every
// call is a cheap no-op, so call sites need no `if tr != nil` guards.
package trace

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// Header is the HTTP header carrying a trace id between processes.
// Clients send it so the server adopts their id; the contract is a
// 1-16 digit lowercase hex string encoding a nonzero uint64.
const Header = "X-Gee-Trace"

// ID is a 64-bit trace identifier. Zero is reserved for "no id".
type ID uint64

// NewID mints a random nonzero trace id.
func NewID() ID {
	for {
		if id := ID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// String renders the id in the fixed 16-hex-digit wire form.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the wire form (any 1-16 digit hex string). The zero
// id and malformed strings report ok=false.
func ParseID(s string) (ID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return ID(v), true
}

// Tag is one key=value annotation on a trace or span.
type Tag struct {
	Key, Value string
}

// Span is one named stage inside a trace. Start and End are offsets
// from the trace's Begin time; End is -1 while the span is open
// (Finish closes any span still open at the trace's end).
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
	Tags  []Tag
}

// Duration is the span's extent; 0 for a span that never closed.
func (s Span) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// SpanRef names a span within its trace for EndSpan/SpanTag. The
// no-op reference (returned by methods on a nil trace) is negative.
type SpanRef int

// Trace is one request's span tree under construction. Zero value is
// not useful; construct with New or Adopt.
type Trace struct {
	id    ID
	name  string
	begin time.Time
	dur   time.Duration // set by Finish; 0 while in flight
	spans []Span
	tags  []Tag
}

// New starts a trace with a freshly minted id.
func New(name string) *Trace { return Adopt(NewID(), name) }

// Adopt starts a trace under a caller-supplied id (a zero id mints a
// fresh one), beginning now.
func Adopt(id ID, name string) *Trace {
	if id == 0 {
		id = NewID()
	}
	return &Trace{id: id, name: name, begin: time.Now(), spans: make([]Span, 0, 8)}
}

// StartSpan opens a span beginning now.
func (t *Trace) StartSpan(name string) SpanRef {
	return t.StartSpanAt(name, time.Now())
}

// StartSpanAt opens a span beginning at an explicit instant, so
// adjacent stages can share one clock reading and stay contiguous.
func (t *Trace) StartSpanAt(name string, at time.Time) SpanRef {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: at.Sub(t.begin), End: -1})
	return SpanRef(len(t.spans) - 1)
}

// EndSpan closes the referenced span now.
func (t *Trace) EndSpan(ref SpanRef) { t.EndSpanAt(ref, time.Now()) }

// EndSpanAt closes the referenced span at an explicit instant.
func (t *Trace) EndSpanAt(ref SpanRef, at time.Time) {
	if t == nil || ref < 0 || int(ref) >= len(t.spans) {
		return
	}
	t.spans[ref].End = at.Sub(t.begin)
}

// AddSpan records an already-measured closed span.
func (t *Trace) AddSpan(name string, start, end time.Time) SpanRef {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.begin), End: end.Sub(t.begin)})
	return SpanRef(len(t.spans) - 1)
}

// SpanTag annotates the referenced span.
func (t *Trace) SpanTag(ref SpanRef, key, value string) {
	if t == nil || ref < 0 || int(ref) >= len(t.spans) {
		return
	}
	t.spans[ref].Tags = append(t.spans[ref].Tags, Tag{key, value})
}

// Tag annotates the trace itself.
func (t *Trace) Tag(key, value string) {
	if t == nil {
		return
	}
	t.tags = append(t.tags, Tag{key, value})
}

// Finish closes the trace (and any span still open) and returns its
// end-to-end duration. The trace must not be mutated afterwards.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.dur = time.Since(t.begin)
	for i := range t.spans {
		if t.spans[i].End < 0 {
			t.spans[i].End = t.dur
		}
	}
	return t.dur
}

// ID returns the trace id (zero for a nil trace).
func (t *Trace) ID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Name returns the trace's root name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Begin returns the trace's start time.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.begin
}

// Duration returns the end-to-end duration (0 until Finish).
//
//gee:noalloc
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.dur
}

// Spans returns the recorded spans. The caller must not mutate the
// slice once the trace is finished and published.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Tags returns the trace-level tags.
func (t *Trace) Tags() []Tag {
	if t == nil {
		return nil
	}
	return t.tags
}

// Span returns the first span with the given name, or false.
func (t *Trace) Span(name string) (Span, bool) {
	if t != nil {
		for _, s := range t.spans {
			if s.Name == name {
				return s, true
			}
		}
	}
	return Span{}, false
}
