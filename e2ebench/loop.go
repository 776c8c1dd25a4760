package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopStats is what one closed- or open-loop phase recorded.
type loopStats struct {
	// lat is each operation's latency: from the request's send in a closed
	// loop, from the instant it was due in an open loop. Failed operations
	// are included with the time they took to fail.
	lat []time.Duration
	// lag is how late the sender issued each operation: after the previous
	// completion in a closed loop, after its scheduled instant in an open
	// loop.
	lag       []time.Duration
	attempted int
	failed    int
	// elapsed runs from the phase's start to its last completion.
	elapsed time.Duration
	// traced[i] says whether operation i ran with tracing on; the trace run
	// alternates one-second windows to price the tracing itself.
	traced []bool
}

func (s *loopStats) add(lat, lag time.Duration, ok, traced bool) {
	s.lat = append(s.lat, lat)
	s.lag = append(s.lag, lag)
	s.traced = append(s.traced, traced)
	s.attempted++
	if !ok {
		s.failed++
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.traced = append(s.traced, o.traced...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
}

func (s *loopStats) opsPerSecond() float64 {
	return ratio(float64(s.attempted-s.failed), s.elapsed.Seconds())
}

// opFunc performs operation i. It calls sent right before the request that
// starts the operation goes out, after any body generation, so generation
// counts as sender lag and not as latency.
type opFunc func(ctx context.Context, i int, sent func()) error

// closedLoop runs clients goroutines that issue operations back to back,
// numbered from first, until d has elapsed or maxOps operations were issued
// (0 = no bound); operations in flight at the end complete and count. It
// returns the stats and the next unused index.
func closedLoop(ctx context.Context, clients, first, maxOps int, d time.Duration, tr *tracer, op opFunc) (loopStats, int) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		stats loopStats
		wg    sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	end := start.Add(d)
	var last time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Before(end) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= first+maxOps {
					break
				}
				var sentAt time.Time
				octx, root := tr.startTrace(ctx, "op")
				err := op(octx, i, func() { sentAt = time.Now() })
				done := time.Now()
				root.end()
				if sentAt.IsZero() {
					sentAt = due
				}
				mu.Lock()
				stats.add(done.Sub(sentAt), sentAt.Sub(due), err == nil, root.t != nil)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
				due = done
			}
		}()
	}
	wg.Wait()
	stats.elapsed = last.Sub(start)
	return stats, first + stats.attempted
}

// openLoop issues operations on a fixed schedule regardless of how fast
// they complete: operation k is due at start + k/rate, for d. Each
// operation runs on lane k mod lanes, and a lane serves its operations one
// at a time in order, so an operation stuck behind a slow predecessor on
// its lane waits — and that wait is charged to it, because latency runs
// from the instant it was due. first numbers the operations.
func openLoop(ctx context.Context, start time.Time, rate float64, d time.Duration, lanes, first int, tr *tracer, op func(ctx context.Context, k, lane int) error) loopStats {
	type item struct {
		k          int
		due, taken time.Time
	}
	n := int(rate * d.Seconds())
	queues := make([]chan item, lanes)
	for i := range queues {
		// Sized to every send the lane can receive, so the scheduler
		// never blocks on a slow lane.
		queues[i] = make(chan item, n/lanes+1)
	}
	var (
		mu    sync.Mutex
		stats loopStats
		last  time.Time
		wg    sync.WaitGroup
	)
	for lane := range queues {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queues[lane] {
				octx, root := tr.startTrace(ctx, "op")
				err := op(octx, it.k, lane)
				done := time.Now()
				root.end()
				mu.Lock()
				stats.add(done.Sub(it.due), it.taken.Sub(it.due), err == nil, root.t != nil)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for j := 0; j < n && ctx.Err() == nil; j++ {
		due := start.Add(time.Duration(j) * interval)
		sleepUntil(due)
		k := first + j
		queues[k%lanes] <- item{k: k, due: due, taken: time.Now()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	stats.elapsed = last.Sub(start)
	return stats
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep is
// not precise enough for a sender due every few hundred microseconds: the
// runtime's netpoller rounds sub-millisecond waits up to a millisecond.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
