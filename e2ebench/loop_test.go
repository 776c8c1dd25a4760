package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers at once except for one request, which it holds for
// stall.
func stallServer(t *testing.T, stallAt int64, stall time.Duration) *client {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	t.Cleanup(srv.Close)
	return newClient(srv.URL)
}

func get(c *client) func(ctx context.Context, k, lane int) error {
	return func(ctx context.Context, k, lane int) error {
		_, _, err := c.call(ctx, "http.get", http.MethodGet, "/", nil)
		return err
	}
}

func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	const stall = 60 * time.Millisecond
	c := stallServer(t, 10, stall)
	// One lane, one request every millisecond: request 9 (the tenth) is
	// due at 9 ms and holds the lane until about 69 ms, so request k in
	// between cannot even start before then.
	st := openLoop(context.Background(), time.Now(), 1000, 150*time.Millisecond, 1, 0, nil, get(c))
	if st.attempted != 150 || st.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 150 and 0", st.attempted, st.failed)
	}
	for k := 10; k < 40; k++ {
		// Completion order is due order on a single lane.
		if want := 9*time.Millisecond + stall - time.Duration(k)*time.Millisecond; st.lat[k] < want {
			t.Fatalf("request %d: latency %v, want at least %v charged from its due time", k, st.lat[k], want)
		}
	}
	if st.lat[5] > stall/2 {
		t.Fatalf("request 5 ran before the stall but took %v", st.lat[5])
	}
	// The sender itself kept time: the stall was the server's, not its.
	if lag := quantile(ms(st.lag), 0.99); lag > 20 {
		t.Fatalf("sender lag p99 %.2f ms while the sender was never blocked", lag)
	}
}

func TestOpenLoopReportsALateSender(t *testing.T) {
	c := stallServer(t, -1, 0)
	// The schedule started 30 ms ago: the first 30 requests are already
	// late when the sender issues them, and both the lag and the latency
	// must show it.
	late := 30 * time.Millisecond
	st := openLoop(context.Background(), time.Now().Add(-late), 1000, 100*time.Millisecond, 4, 0, nil, get(c))
	if lag := quantile(ms(st.lag), 0.99); lag < 20 {
		t.Fatalf("sender lag p99 %.2f ms, want the ~30 ms the sender started late", lag)
	}
	if worst := quantile(ms(st.lat), 1); worst < 20 {
		t.Fatalf("worst latency %.2f ms does not include the sender's lateness", worst)
	}
}

func TestClosedLoopStopsAtItsOperationBound(t *testing.T) {
	c := stallServer(t, -1, 0)
	op := func(ctx context.Context, i int, sent func()) error {
		sent()
		_, _, err := c.call(ctx, "http.get", http.MethodGet, "/", nil)
		return err
	}
	st, next := closedLoop(context.Background(), 2, 7, 25, time.Minute, nil, op)
	if st.attempted != 25 || next != 32 {
		t.Fatalf("attempted %d, next %d; want 25 and 32", st.attempted, next)
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer(0)
	ctx, root := tr.startTrace(context.Background(), "op")
	_, a := startSpan(ctx, "child")
	time.Sleep(5 * time.Millisecond)
	a.end()
	time.Sleep(5 * time.Millisecond)
	root.end()
	if len(tr.spans) != 2 || tr.spans[0].Trace != tr.spans[1].Trace || tr.spans[0].Parent != tr.spans[1].ID {
		t.Fatalf("spans %+v: want one child under one root, one trace ID", tr.spans)
	}
	self := selfTimes(tr.spans)
	if self["op"] < 4*time.Millisecond || self["op"] > self["op"]+self["child"]-4*time.Millisecond {
		t.Fatalf("self times %v: the root's must exclude its child's 5 ms", self)
	}
	if off := (*tracer)(nil); off.enabled() {
		t.Fatal("a nil tracer records")
	}
}
