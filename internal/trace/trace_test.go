package trace

import (
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	id := NewID()
	if id == 0 {
		t.Fatal("NewID minted the reserved zero id")
	}
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("ID.String() = %q, want 16 hex digits", s)
	}
	got, ok := ParseID(s)
	if !ok || got != id {
		t.Fatalf("ParseID(%q) = (%v, %v), want (%v, true)", s, got, ok, id)
	}
	for _, bad := range []string{"", "0", "zz", "123456789abcdef01", "0x12"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted, want reject", bad)
		}
	}
	// Short hex (no leading zeros) is accepted: header leniency.
	if got, ok := ParseID("ff"); !ok || got != 0xff {
		t.Errorf("ParseID(\"ff\") = (%v, %v), want (255, true)", got, ok)
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := Adopt(42, "POST /v1/edges")
	if tr.ID() != 42 || tr.Name() != "POST /v1/edges" {
		t.Fatalf("Adopt kept id=%v name=%q", tr.ID(), tr.Name())
	}
	q := tr.StartSpan("queue")
	time.Sleep(time.Millisecond)
	tr.EndSpan(q)
	tr.SpanTag(q, "depth", "3")
	open := tr.StartSpan("ack") // left open: Finish must close it
	tr.Tag("status", "200")
	dur := tr.Finish()
	if dur <= 0 || tr.Duration() != dur {
		t.Fatalf("Finish() = %v, Duration() = %v", dur, tr.Duration())
	}
	sp, ok := tr.Span("queue")
	if !ok {
		t.Fatal("queue span missing")
	}
	if sp.Duration() < time.Millisecond || sp.End > dur {
		t.Fatalf("queue span [%v,%v] outside trace duration %v", sp.Start, sp.End, dur)
	}
	if len(sp.Tags) != 1 || sp.Tags[0] != (Tag{"depth", "3"}) {
		t.Fatalf("queue span tags = %v", sp.Tags)
	}
	if got := tr.Spans()[open]; got.End != dur {
		t.Fatalf("Finish left span open: End=%v want %v", got.End, dur)
	}
	if len(tr.Tags()) != 1 || tr.Tags()[0] != (Tag{"status", "200"}) {
		t.Fatalf("trace tags = %v", tr.Tags())
	}
}

func TestAddSpanExplicitTimes(t *testing.T) {
	tr := New("w")
	start := tr.Begin().Add(time.Millisecond)
	end := start.Add(2 * time.Millisecond)
	ref := tr.AddSpan("fold", start, end)
	tr.Finish()
	sp := tr.Spans()[ref]
	if sp.Start != time.Millisecond || sp.Duration() != 2*time.Millisecond {
		t.Fatalf("AddSpan recorded [%v,%v]", sp.Start, sp.End)
	}
}

// TestNilTraceSafe pins the disabled-tracing contract: every method on
// a nil *Trace is a no-op, so call sites carry no guards.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	ref := tr.StartSpan("queue")
	if ref >= 0 {
		t.Fatalf("nil StartSpan returned live ref %d", ref)
	}
	tr.EndSpan(ref)
	tr.EndSpan(0)
	tr.SpanTag(ref, "k", "v")
	tr.AddSpan("x", time.Now(), time.Now())
	tr.Tag("k", "v")
	if tr.Finish() != 0 || tr.ID() != 0 || tr.Name() != "" || tr.Duration() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	if tr.Spans() != nil || tr.Tags() != nil {
		t.Fatal("nil trace slices not nil")
	}
	if _, ok := tr.Span("queue"); ok {
		t.Fatal("nil trace found a span")
	}
	// Out-of-range refs on a live trace are equally inert.
	live := New("w")
	live.EndSpan(5)
	live.SpanTag(5, "k", "v")
	if len(live.Spans()) != 0 {
		t.Fatal("bad ref mutated a live trace")
	}
}
