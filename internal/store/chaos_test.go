// Chaos tests for the file backend: crash-restart properties over random
// cut points, injected I/O faults (transient, persistent, torn writes,
// fsync failures), CRC quarantine, and degraded-mode recovery. External
// test package so it can use the fault injector (which imports store).
package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"batsched/internal/faults"
	"batsched/internal/obs"
	"batsched/internal/store"
)

// chaosSeed returns the deterministic seed for randomized chaos tests,
// overridable via CHAOS_SEED so CI pins one and local runs can explore.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 20260807
}

// noSleep stands in for time.Sleep so retry backoff is instant in tests.
func noSleep(time.Duration) {}

// fakeClock is a manually-advanced clock for breaker-cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func mustPutCell(t *testing.T, s *store.Store, digest, line string) {
	t.Helper()
	if err := s.PutCell(digest, json.RawMessage(line)); err != nil {
		t.Fatalf("PutCell(%s): %v", digest, err)
	}
}

// seedStore populates a fresh file-backed store with n cells, one line
// each, then closes it. Returns the cell digests.
func seedStore(t *testing.T, path string, n int) []string {
	t.Helper()
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, n)
	for i := range digests {
		digests[i] = fmt.Sprintf("cell-%03d", i)
		mustPutCell(t, s, digests[i], fmt.Sprintf(`{"solver":"s%d","lifetime_min":%d.5}`, i, i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return digests
}

// A complete-but-corrupt line mid-file must be quarantined — skipped and
// counted — while every record after it still loads. The old behavior
// (truncate everything past the first bad line) turned one flipped bit
// into total loss of the file's tail.
func TestReplayQuarantinesGarbageMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	seedStore(t, path, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Replace the second record with complete garbage (newline kept).
	lines[1] = []byte("!!not json at all!!\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("reopen with mid-file garbage: %v", err)
	}
	defer s.Close()
	c := s.Counters()
	if c.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined)
	}
	if c.Entries != 3 {
		t.Fatalf("Entries = %d, want 3 (one quarantined)", c.Entries)
	}
	// The records after the corrupt line survived.
	if _, ok := s.PeekCell("cell-003"); !ok {
		t.Fatal("record after corrupt line was lost")
	}
}

// A line that still parses as JSON but whose bytes were tampered with must
// fail its CRC and be quarantined — this is the case torn-tail handling
// can never catch.
func TestReplayQuarantinesCRCMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	seedStore(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the first record's payload: JSON stays valid,
	// the checksum does not.
	tampered := bytes.Replace(data, []byte(`"lifetime_min":0.5`), []byte(`"lifetime_min":9.5`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if c := s.Counters(); c.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", c.Quarantined)
	}
	if _, ok := s.PeekCell("cell-000"); ok {
		t.Fatal("tampered record served")
	}
	if _, ok := s.PeekCell("cell-002"); !ok {
		t.Fatal("clean record behind the tampered one was lost")
	}
}

// Records written before checksumming (no crc field) are accepted
// unverified, so pre-existing store files keep working.
func TestReplayAcceptsCRCLessRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	old := `{"cell":"old-cell","result":{"solver":"bestof","lifetime_min":16.28}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if line, ok := s.PeekCell("old-cell"); !ok || string(line) != `{"solver":"bestof","lifetime_min":16.28}` {
		t.Fatalf("CRC-less record not loaded: %s ok=%v", line, ok)
	}
	if c := s.Counters(); c.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", c.Quarantined)
	}
}

// A transient write error must be absorbed by retry: the put succeeds, the
// retry counter advances, and the breaker stays closed.
func TestAppendRetriesTransientFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	// Fail the first two write attempts; the third succeeds within the
	// default three-retry budget.
	inj := faults.New(chaosSeed(t),
		faults.Rule{Op: faults.OpStoreWrite, P: 1, Count: 2})
	s, err := store.OpenWith(store.Options{
		Path:     path,
		WrapFile: faults.WrapStore(inj),
		Sleep:    noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPutCell(t, s, "d1", `{"ok":1}`)
	c := s.Counters()
	if c.AppendRetries != 2 {
		t.Fatalf("AppendRetries = %d, want 2", c.AppendRetries)
	}
	if c.AppendErrors != 0 || c.Degraded {
		t.Fatalf("transient fault tripped the breaker: %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The retried record landed intact and survives reopen.
	re, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if line, ok := re.PeekCell("d1"); !ok || string(line) != `{"ok":1}` {
		t.Fatalf("retried record lost: %s ok=%v", line, ok)
	}
	if qc := re.Counters(); qc.Quarantined != 0 {
		t.Fatalf("clean retry left quarantined debris: %+v", qc)
	}
}

// Persistent write failure trips the breaker: the put errors, further puts
// fail fast with ErrDegraded (no backend I/O), reads keep working, and
// after the cooldown a healthy put closes the breaker again. The file must
// reopen cleanly afterwards with only the committed records.
func TestDegradedModeAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	clk := newFakeClock()
	inj := faults.New(chaosSeed(t))
	s, err := store.OpenWith(store.Options{
		Path:            path,
		WrapFile:        faults.WrapStore(inj),
		Sleep:           noSleep,
		Clock:           clk.Now,
		BreakerCooldown: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPutCell(t, s, "before", `{"n":0}`)
	clk.Advance(time.Second)
	// 4 write attempts per put (1 + 3 retries); arm 8 failures so the next
	// put exhausts its retries and trips the breaker, with faults left over
	// to prove fail-fast puts do not touch the backend.
	inj.Add(faults.Rule{Op: faults.OpStoreWrite, P: 1, Count: 8})
	if err := s.PutCell("lost", json.RawMessage(`{"n":1}`)); err == nil {
		t.Fatal("put succeeded despite persistent write failure")
	}
	c := s.Counters()
	if !c.Degraded || c.AppendErrors != 1 {
		t.Fatalf("breaker did not trip: %+v", c)
	}
	if c.AppendRetries != 3 {
		t.Fatalf("AppendRetries = %d, want 3", c.AppendRetries)
	}
	// Fail-fast: within the cooldown, puts return ErrDegraded without
	// consuming injector faults (no backend I/O at all).
	fired := inj.Fired(faults.OpStoreWrite)
	if err := s.PutCell("lost2", json.RawMessage(`{"n":2}`)); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded put error = %v, want ErrDegraded", err)
	}
	if got := inj.Fired(faults.OpStoreWrite); got != fired {
		t.Fatal("fail-fast put touched the backend")
	}
	if s.Counters().DroppedPuts != 1 {
		t.Fatalf("DroppedPuts = %d, want 1", s.Counters().DroppedPuts)
	}
	// Reads still serve while degraded.
	if line, ok := s.GetCell("before"); !ok || string(line) != `{"n":0}` {
		t.Fatalf("read while degraded: %s ok=%v", line, ok)
	}
	// Half-open probe before cooldown has not elapsed: still fail-fast.
	clk.Advance(5 * time.Second)
	if err := s.PutCell("early", json.RawMessage(`{"n":3}`)); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("pre-cooldown put error = %v, want ErrDegraded", err)
	}
	// Past the cooldown the probe reaches the (now healthy: remaining
	// fault budget exhausted by the first put's 4 attempts... ensure by
	// advancing past all Count=8 fires) backend and the breaker closes.
	clk.Advance(6 * time.Second)
	// Burn remaining injected faults: each failed probe re-arms cooldown.
	for i := 0; i < 2; i++ {
		if err := s.PutCell("probe", json.RawMessage(`{"n":4}`)); err == nil {
			break
		}
		clk.Advance(11 * time.Second)
	}
	if err := s.PutCell("after", json.RawMessage(`{"n":5}`)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if c := s.Counters(); c.Degraded {
		t.Fatalf("breaker still open after successful put: %+v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: only committed records present, file parses cleanly.
	re, err := store.Open(path)
	if err != nil {
		t.Fatalf("reopen after degraded episode: %v", err)
	}
	defer re.Close()
	if _, ok := re.PeekCell("before"); !ok {
		t.Fatal("pre-fault record lost")
	}
	if _, ok := re.PeekCell("after"); !ok {
		t.Fatal("post-recovery record lost")
	}
	if _, ok := re.PeekCell("lost"); ok {
		t.Fatal("failed put surfaced after reopen")
	}
}

// Torn partial writes: a put whose every attempt tears must fail without
// poisoning the file — the fragment is terminated with a newline by the
// next successful append, replays as one quarantined line, and every
// committed record before and after it survives reopen.
func TestTornWriteRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.ndjson")
	clk := newFakeClock()
	inj := faults.New(chaosSeed(t))
	s, err := store.OpenWith(store.Options{
		Path:            path,
		WrapFile:        faults.WrapStore(inj),
		Sleep:           noSleep,
		Clock:           clk.Now,
		BreakerCooldown: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPutCell(t, s, "intact-1", `{"n":1}`)
	inj.Add(faults.Rule{Op: faults.OpStoreWrite, P: 1, Torn: true, Count: 4})
	if err := s.PutCell("torn-victim", json.RawMessage(`{"n":2}`)); err == nil {
		t.Fatal("put succeeded though every write tore")
	}
	clk.Advance(2 * time.Second) // past cooldown: next put probes
	mustPutCell(t, s, "intact-2", `{"n":3}`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(path)
	if err != nil {
		t.Fatalf("reopen after torn writes: %v", err)
	}
	defer re.Close()
	if _, ok := re.PeekCell("intact-1"); !ok {
		t.Fatal("record before torn write lost")
	}
	if _, ok := re.PeekCell("intact-2"); !ok {
		t.Fatal("record after torn-tail repair lost")
	}
	// The torn put either quarantines (cut mid-record: bad JSON or CRC) or
	// — when the cut landed exactly after the record's last content byte —
	// is completed by the repair newline and surfaces byte-exact. Both are
	// sound; surfacing CORRUPT bytes is the failure mode being excluded.
	if line, ok := re.PeekCell("torn-victim"); ok {
		if string(line) != `{"n":2}` {
			t.Fatalf("torn put surfaced corrupt bytes: %q", line)
		}
	} else if c := re.Counters(); c.Quarantined < 1 {
		t.Fatalf("torn fragment neither quarantined nor complete: %+v", c)
	}
}

// Crash-restart property: for random cut points through a store file — a
// SIGKILL can land mid-write anywhere — reopening the prefix must succeed,
// the served cells must be exactly the lines the cut kept whole (a prefix
// of the append order), every served cell must be intact JSON, and the
// reopened store must accept new appends that survive another reopen.
func TestCrashRestartProperty(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ndjson")
	digests := seedStore(t, full, 8)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	for trial := 0; trial < 40; trial++ {
		cut := rng.Intn(len(data) + 1)
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.ndjson", trial))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatalf("cut@%d: reopen: %v", cut, err)
		}
		whole := bytes.Count(data[:cut], []byte("\n"))
		lines, hits := s.LookupCells(digests)
		if hits != whole {
			t.Fatalf("cut@%d: %d cells served, want the %d whole lines", cut, hits, whole)
		}
		for i, line := range lines {
			if (line != nil) != (i < whole) {
				t.Fatalf("cut@%d: cell %d served=%v, want only the first %d", cut, i, line != nil, whole)
			}
			if line != nil && !json.Valid(line) {
				t.Fatalf("cut@%d: cell %d corrupt: %q", cut, i, line)
			}
		}
		// The survivor keeps working: append, close, reopen, verify.
		mustPutCell(t, s, "post-crash", `{"alive":true}`)
		if err := s.Close(); err != nil {
			t.Fatalf("cut@%d: close: %v", cut, err)
		}
		re, err := store.Open(path)
		if err != nil {
			t.Fatalf("cut@%d: second reopen: %v", cut, err)
		}
		if line, ok := re.PeekCell("post-crash"); !ok || string(line) != `{"alive":true}` {
			t.Fatalf("cut@%d: post-crash append lost: %s ok=%v", cut, line, ok)
		}
		re.Close()
	}
}

// Sync policies: always fsyncs once per put, never only on Close, interval
// at most once per period (piggybacked on puts, fake clock driven).
func TestSyncPolicies(t *testing.T) {
	syncs := func(t *testing.T, pol store.SyncPolicy, interval time.Duration, step time.Duration, puts int) int64 {
		t.Helper()
		clk := newFakeClock()
		inj := faults.New(1) // no rules: pure op counter
		s, err := store.OpenWith(store.Options{
			Path:         filepath.Join(t.TempDir(), "s.ndjson"),
			Sync:         pol,
			SyncInterval: interval,
			WrapFile:     faults.WrapStore(inj),
			Clock:        clk.Now,
			Sleep:        noSleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < puts; i++ {
			mustPutCell(t, s, fmt.Sprintf("d%d", i), `{"x":1}`)
			clk.Advance(step)
		}
		n := inj.Ops(faults.OpStoreSync)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := syncs(t, store.SyncAlways, 0, 0, 5); n != 5 {
		t.Fatalf("always: %d syncs for 5 puts, want 5", n)
	}
	if n := syncs(t, store.SyncNever, 0, 0, 5); n != 0 {
		t.Fatalf("never: %d syncs before Close, want 0", n)
	}
	// 100ms interval, 60ms steps: puts land at t=0,60,120,... — the put
	// at 0ms was preceded by lastSync=open time so not synced... syncs
	// happen when now-lastSync >= interval: expect roughly every other put.
	n := syncs(t, store.SyncInterval, 100*time.Millisecond, 60*time.Millisecond, 6)
	if n < 2 || n >= 6 {
		t.Fatalf("interval: %d syncs for 6 puts at 60ms/100ms, want a few but not all", n)
	}
}

// An fsync failure under SyncAlways must not fail the put (the bytes are
// written) but must trip the breaker and count a sync error.
func TestSyncFailureTripsBreaker(t *testing.T) {
	clk := newFakeClock()
	inj := faults.New(chaosSeed(t), faults.Rule{Op: faults.OpStoreSync, P: 1, Count: 4})
	s, err := store.OpenWith(store.Options{
		Path:     filepath.Join(t.TempDir(), "s.ndjson"),
		Sync:     store.SyncAlways,
		WrapFile: faults.WrapStore(inj),
		Clock:    clk.Now,
		Sleep:    noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPutCell(t, s, "d1", `{"x":1}`) // put served; sync failed behind it
	c := s.Counters()
	if c.SyncErrors != 1 || !c.Degraded {
		t.Fatalf("sync failure not surfaced: %+v", c)
	}
	if _, ok := s.PeekCell("d1"); !ok {
		t.Fatal("synced-write put lost from memory")
	}
}

// Injected write latency must land in the append-latency histogram: the
// observation covers the whole commit (write + retries + fsync), so an
// operator sees injected (or real) slowness as a shifted bucket, not just
// as a retry counter.
func TestAppendLatencyHistogramUnderInjectedLatency(t *testing.T) {
	const injected = 20 * time.Millisecond
	inj := faults.New(chaosSeed(t),
		faults.Rule{Op: faults.OpStoreWrite, P: 1, Count: 1, Latency: injected})
	h := obs.NewHistogram(nil)
	s, err := store.OpenWith(store.Options{
		Path:          filepath.Join(t.TempDir(), "s.ndjson"),
		WrapFile:      faults.WrapStore(inj),
		Sleep:         noSleep,
		AppendLatency: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPutCell(t, s, "d1", `{"x":1}`)
	snap := h.Snapshot()
	if snap.Count() != 1 {
		t.Fatalf("append latency observations = %d, want 1", snap.Count())
	}
	if got := snap.Sum; got < injected.Seconds() {
		t.Fatalf("append latency sum %.6fs, want >= injected %.3fs", got, injected.Seconds())
	}
	// The delayed commit must sit in a bucket at or above the injected
	// latency — the buckets below it stay empty.
	for i, bound := range snap.Bounds {
		if bound < injected.Seconds() && snap.Counts[i] != 0 {
			t.Fatalf("observation landed below the injected latency: bucket le=%g has %d", bound, snap.Counts[i])
		}
	}
}
