package obs

import (
	"context"
	"strings"
	"testing"
)

func TestStartSpanDisarmed(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil {
		t.Fatal("span created without a tracer")
	}
	if ctx2 != ctx {
		t.Fatal("disarmed StartSpan must return the same context")
	}
	// Nil-span methods are all no-ops.
	sp.Set("k", "v").SetInt("n", 1)
	sp.End()
	if sp.TraceHex() != "" || sp.Traceparent() != "" {
		t.Fatal("nil span leaked identity")
	}
}

func TestStartSpanDisarmedDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "noop")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disarmed StartSpan allocates %v per op, want 0", allocs)
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// armedSpanAllocsPer128 bounds the allocations of 128 armed span lifecycles
// (StartSpan, SetInt, End into the ring): 924 when the pin was introduced,
// about 7.2 per span, the same count over 120 runs.
const armedSpanAllocsPer128 = 924

func TestArmedSpanAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := NewTracer(1024)
	ctx := WithTracer(context.Background(), tr)
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 128; i++ {
			_, sp := StartSpan(ctx, "armed")
			sp.SetInt("i", int64(i))
			sp.End()
		}
	})
	if tr.Active() != 0 {
		t.Fatalf("%d spans left active", tr.Active())
	}
	if allocs > armedSpanAllocsPer128 {
		t.Errorf("128 armed spans: %v allocs (%.2f per span), ceiling %d", allocs, allocs/128, armedSpanAllocsPer128)
	}
}

func TestSpanParentChildAndRing(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	if root == nil {
		t.Fatal("no root span with an armed tracer")
	}
	_, child := StartSpan(ctx, "child")
	child.Set("cache", "miss").SetInt("cells", 9)
	child.End()
	root.End()
	root.End() // idempotent

	if got := tr.Active(); got != 0 {
		t.Fatalf("Active = %d after all spans ended", got)
	}
	if got := tr.Started(); got != 2 {
		t.Fatalf("Started = %d, want 2", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(spans))
	}
	// Completion order: child first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("ring order %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Trace != spans[1].Trace {
		t.Fatal("child and root on different traces")
	}
	if spans[0].Parent != spans[1].Span {
		t.Fatalf("child parent %q != root span %q", spans[0].Parent, spans[1].Span)
	}
	if spans[1].Parent != "" {
		t.Fatalf("root has parent %q", spans[1].Parent)
	}
	if len(spans[0].Attrs) != 2 || spans[0].Attrs[0].Value != "miss" || spans[0].Attrs[1].Value != "9" {
		t.Fatalf("child attrs = %+v", spans[0].Attrs)
	}
	if spans[0].DurationNs < 0 {
		t.Fatal("negative duration")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if tr.Active() != 0 {
		t.Fatal("active spans leaked")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "root")
	hdr := sp.Traceparent()
	sp.End()
	trace, span, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", hdr)
	}
	if trace.String() != sp.TraceHex() || span.String() != sp.IDHex() {
		t.Fatalf("round trip mismatch: %q -> %s %s", hdr, trace, span)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("unexpected header shape %q", hdr)
	}

	for _, bad := range []string{
		"", "00", "00-abc-def-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff reserved
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e473X-00f067aa0ba902b7-01", // bad hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr := NewTracer(4)
	trace, parent, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("seed header did not parse")
	}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), trace, parent)
	_, sp := StartSpan(ctx, "continue")
	if sp.TraceHex() != trace.String() {
		t.Fatalf("remote trace not continued: %s", sp.TraceHex())
	}
	sp.End()
	spans := tr.Snapshot()
	if spans[0].Parent != parent.String() {
		t.Fatalf("remote parent not recorded: %q", spans[0].Parent)
	}
}

func TestLinkContinuesTraceAfterSpanEnds(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "submit")
	link := LinkFromContext(ctx)
	root.End()

	// The "worker" context: fresh background context, same trace via the
	// link.
	wctx := link.Context(context.Background())
	_, run := StartSpan(wctx, "job.run")
	if run.TraceHex() != root.TraceHex() {
		t.Fatal("link did not continue the trace")
	}
	run.End()
	if link.Trace() != root.TraceHex() {
		t.Fatalf("Link.Trace = %q", link.Trace())
	}

	// The zero link is inert.
	var none Link
	if none.Trace() != "" {
		t.Fatal("zero link has a trace")
	}
	if none.Context(context.Background()) != context.Background() {
		t.Fatal("zero link modified the context")
	}
}

func TestTracerDumpFilter(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithTracer(context.Background(), tr)
	ctx1, a := StartSpan(ctx, "a")
	_, a2 := StartSpan(ctx1, "a2")
	a2.End()
	a.End()
	_, b := StartSpan(ctx, "b")
	b.End()

	all := tr.Dump("", 0)
	if len(all.Spans) != 3 || all.Active != 0 || all.Started != 3 {
		t.Fatalf("dump = %+v", all)
	}
	one := tr.Dump(a.TraceHex(), 0)
	if len(one.Spans) != 2 {
		t.Fatalf("filtered dump has %d spans, want 2", len(one.Spans))
	}
	lim := tr.Dump("", 1)
	if len(lim.Spans) != 1 || lim.Spans[0].Name != "b" {
		t.Fatalf("limited dump = %+v", lim.Spans)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request id lengths %d, %d", len(a), len(b))
	}
	if a == b {
		t.Fatal("request ids collide")
	}
}
